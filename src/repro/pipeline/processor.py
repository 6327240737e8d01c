"""The cycle-level clustered out-of-order processor.

Stage order within a simulated cycle (oldest work first, so resources freed
in one stage become visible the next cycle):

1. memory housekeeping + load-completion drain,
2. commit (in order, up to 16/cycle),
3. issue/select per cluster (oldest-ready-first, bounded by FUs),
4. dispatch/steer (in order, up to 16/cycle),
5. fetch,
6. the reconfiguration controller's commit-driven hooks run inline with
   commit; interval controllers fire on committed-instruction boundaries.

All latencies are absolute cycle numbers computed at scheduling time, so
there is no per-cycle polling of the memory system or the interconnect.

Two loops implement that cycle.  The production loop is
:class:`~repro.pipeline.fused.FusedCore`, which transcribes the stages
inline, selects event-driven, and skips idle cycles; ``run()`` and
``advance()`` drive it.  The stage methods below are the reference
implementation: a processor built with ``naive_issue=True`` runs them one
cycle at a time instead, with a select that scans every cluster every
cycle, as the equivalence oracle for the fused loop.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Tuple

from ..clusters.cluster import Cluster
from ..clusters.criticality import CriticalityPredictor
from ..clusters.steering import ProducerSteering
from ..config import ProcessorConfig, env_flag
from ..errors import RunTimeout, SimulationError
from ..frontend.fetch import FetchUnit
from ..interconnect.network import Network
from ..memory.hierarchy import build_memory
from ..observability.tracer import NULL_TRACER, Tracer
from ..resilience.manager import FaultManager
from ..stats import SimStats
from ..workloads.instruction import Instr, OpClass, Trace
from .fused import _EXEC_LAT, _NEVER, _PRUNE_EVERY, FusedCore
from .invariants import INVARIANTS_ENV, InvariantChecker
from .rob import InFlight, ReorderBuffer

#: safety multiplier: a run may not take more than this many cycles per
#: instruction before we declare the pipeline wedged
_MAX_CPI = 400

#: cycles a run with a wall-clock deadline advances between clock reads
DEADLINE_CHUNK = 2_048


class ClusteredProcessor:
    """A dynamically reconfigurable clustered processor bound to one trace."""

    def __init__(
        self,
        trace: Trace,
        config: ProcessorConfig,
        controller: Optional[object] = None,
        *,
        naive_issue: bool = False,
        tracer: Optional[Tracer] = None,
        fault_schedule: Optional[object] = None,
    ) -> None:
        self.trace = trace
        self.config = config
        self.stats = SimStats()
        self.network = Network(config.interconnect, config.num_clusters, self.stats)
        self.memory = build_memory(config, self.network, self.stats)
        self.fetch_unit = FetchUnit(trace, config.front_end, self.stats)
        self.clusters = [Cluster(k, config.cluster) for k in range(config.num_clusters)]
        self.criticality = CriticalityPredictor()
        self.steering = ProducerSteering(self.clusters, self.criticality)
        self.rob = ReorderBuffer(config.rob_size)

        self.cycle = 0
        #: what the controller last asked for (its view of the machine)
        self._logical_active = config.num_clusters
        #: physical dispatch window: steering probes clusters [0, bound)
        self.active_clusters = config.num_clusters
        #: live clusters inside the window (the cluster-cycle integral);
        #: equals the other two on a healthy machine
        self.effective_active_clusters = config.num_clusters
        self._records: Dict[int, InFlight] = {}
        #: (cluster, finish_cycle) of committed producers, for late consumers
        self._done: Dict[int, Tuple[int, int]] = {}
        self._dispatch_stalled_until = 0
        self._home = config.home_cluster
        self._hop = config.interconnect.hop_latency

        #: instructions must be this many entries younger than the ROB head
        #: to count as "distant" (the paper uses 120 = 4 clusters x 30 regs)
        self.distant_threshold = 4 * config.cluster.regfile_size

        #: run the stage-by-stage reference loop instead of the fused one
        #: (the equivalence oracle; see tests/pipeline/test_event_issue_equivalence)
        self.naive_issue = naive_issue

        #: passive observer (see :mod:`repro.observability`): emission sites
        #: guard on ``tracer.enabled``, and sampling is driven by a single
        #: next-sample cycle number so a disabled tracer costs one integer
        #: compare per cycle.  Set before the controller attaches — the
        #: controllers pick the tracer up from here.
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self._last_sample_cycle = 0
        self._last_sample_committed = 0
        if self.tracer.enabled:
            self.tracer.emit(
                "run_start",
                cycle=0,
                committed=0,
                workload=trace.name,
                instructions=len(trace),
                clusters=config.num_clusters,
            )
            period = self.tracer.sample_period
            self._next_sample = period if period > 0 else _NEVER
        else:
            self._next_sample = _NEVER

        self.controller = controller
        self._controller_wants_dispatch = bool(
            getattr(controller, "needs_dispatch_events", False)
        )
        if controller is not None:
            controller.attach(self)

        #: sampled structural checks (read-only, so results are identical
        #: with checking on or off); see :mod:`repro.pipeline.invariants`
        self.invariants = InvariantChecker(self) if env_flag(INVARIANTS_ENV) else None

        #: architectural fault injection (see :mod:`repro.resilience`):
        #: polled with a single integer compare per cycle, so a run with
        #: no schedule is bit-identical to one built without the feature
        self._fault_manager: Optional[FaultManager] = None
        self._next_fault = _NEVER
        if fault_schedule:
            self._fault_manager = FaultManager(fault_schedule, self)
            self._next_fault = self._fault_manager.next_cycle

        #: the production cycle loop (None: the reference loop runs)
        self._core = None if naive_issue else FusedCore(self)
        #: committed count at which the fused loop next forgets the link
        #: and port bookings older than the ROB head (see repro.timing)
        self._next_prune = _PRUNE_EVERY

    # ------------------------------------------------------------------
    # reconfiguration interface (used by controllers)

    def stall_dispatch_for(self, cycles: int) -> None:
        """Pause dispatch for ``cycles`` (models the run-time algorithm's
        software invocation, ~100 instructions in the paper)."""
        if cycles > 0:
            self._dispatch_stalled_until = max(
                self._dispatch_stalled_until, self.cycle + cycles
            )

    def set_active_clusters(self, n: int, reason: str = "") -> None:
        """Restrict dispatch to the first ``n`` live clusters (instructions
        already in the others drain naturally).  With a decentralized cache
        this flushes the L1 and stalls dispatch for the flush duration."""
        n = max(1, min(n, self.config.num_clusters))
        if n == self._logical_active:
            return
        before = self._logical_active
        self._logical_active = n
        self.stats.reconfigurations += 1
        if self.tracer.enabled:
            self.tracer.emit(
                "reconfig",
                cycle=self.cycle,
                committed=self.stats.committed,
                before=before,
                after=n,
                reason=reason,
            )
        self.refresh_live_clusters()

    def refresh_live_clusters(self) -> None:
        """Recompute the physical dispatch window from cluster liveness.

        ``_logical_active`` is the controller's request; ``active_clusters``
        is the physical prefix bound sized so the window holds that many
        *live* clusters (or every cluster, when too few survive); and
        ``effective_active_clusters`` is the live count inside the window.
        On a healthy machine the three are equal and this reduces to the
        pre-fault behavior bit for bit.  Cache banks remap onto the live
        clusters inside the window, flushing the L1 like any resize.
        """
        clusters = self.clusters
        want = self._logical_active
        bound = self.config.num_clusters
        live_seen = 0
        for k, cluster in enumerate(clusters):
            if cluster.live:
                live_seen += 1
                if live_seen >= want:
                    bound = k + 1
                    break
        self.active_clusters = bound
        banks = tuple(k for k in range(bound) if clusters[k].live)
        self.effective_active_clusters = len(banks)
        stall = self.memory.set_banks(banks, self.cycle)
        if stall:
            self._dispatch_stalled_until = max(
                self._dispatch_stalled_until, self.cycle + stall
            )

    # ------------------------------------------------------------------
    # operand plumbing

    def _operand_available(self, producer: InFlight, consumer_cluster: int) -> int:
        """When the producer's finished result is usable in a cluster."""
        finish = producer.finish_cycle
        assert finish is not None
        if producer.cluster == consumer_cluster:
            return finish
        cached = producer.remote_ready.get(consumer_cluster)
        if cached is not None:
            return cached
        arrival = self.network.transfer(
            producer.cluster, consumer_cluster, finish, kind="register"
        )
        producer.remote_ready[consumer_cluster] = arrival
        return arrival

    def _resolve_operand(self, rec: InFlight, pos: int, src: int) -> None:
        """Fill in op_avail[pos] for a dispatching instruction."""
        store_data = pos == 1 and rec.store_split
        if src < 0:
            rec.op_avail[pos] = 0
            return
        producer = self._records.get(src)
        if producer is not None:
            if producer.finish_cycle is not None:
                rec.op_avail[pos] = self._operand_available(producer, rec.cluster)
            else:
                rec.op_avail[pos] = None
                if not store_data:
                    rec.unknown_ops += 1
                producer.waiters.append((rec, pos))
            return
        done = self._done.get(src)
        if done is None:
            rec.op_avail[pos] = 0  # ancient producer: value long available
            return
        p_cluster, p_finish = done
        if p_cluster == rec.cluster:
            rec.op_avail[pos] = p_finish
        else:
            rec.op_avail[pos] = self.network.transfer(
                p_cluster, rec.cluster, max(p_finish, rec.dispatch_cycle), kind="register"
            )

    def _producer_finished(self, producer: InFlight) -> None:
        """Propagate a newly known finish time to all waiting consumers."""
        clusters = self.clusters
        for consumer, pos in producer.waiters:
            avail = self._operand_available(producer, consumer.cluster)
            consumer.operand_known(pos, avail)
            # operand arrival may make the consumer issuable: wake its
            # cluster at the earliest cycle the entry could be selected
            if consumer.unknown_ops == 0 and not consumer.issued:
                wake = consumer.ready_time
                if consumer.earliest_issue > wake:
                    wake = consumer.earliest_issue
                cluster = clusters[consumer.cluster]
                if wake < cluster.wake_cycle:
                    cluster.wake_cycle = wake
        producer.waiters.clear()

    # ------------------------------------------------------------------
    # pipeline stages

    def _drain_memory(self) -> None:
        self.memory.tick(self.cycle)
        for index, ready in self.memory.drain_completions():
            rec = self._records.get(index)
            if rec is None:
                raise SimulationError(f"completion for unknown load {index}")
            rec.finish_cycle = ready
            self._producer_finished(rec)

    def _commit(self) -> None:
        rob = self.rob
        entries = rob._entries
        if not entries:
            return
        cycle = self.cycle
        stats = self.stats
        clusters = self.clusters
        records = self._records
        done = self._done
        controller = self.controller
        width = self.config.front_end.commit_width
        committed = 0
        while committed < width and entries:
            rec = entries[0]
            finish = rec.finish_cycle
            if finish is None or finish > cycle:
                break
            entries.popleft()
            committed += 1
            instr = rec.instr
            stats.committed += 1
            if instr.is_branch:
                stats.branches += 1
            elif instr.is_mem:
                stats.memrefs += 1
                stats.loads += instr.is_load
                stats.stores += instr.is_store
                self.memory.commit(instr, cycle)
            if rec.distant:
                stats.distant_commits += 1
            clusters[rec.cluster].on_commit(instr.op, instr.has_dest)
            done[instr.index] = (rec.cluster, finish)
            del records[instr.index]
            if controller is not None:
                controller.on_commit(instr, cycle, rec.distant)

    def _issue_naive(self) -> None:
        """Reference select: scan every cluster's queue every cycle.

        The behavioral-equivalence oracle for the fused loop's
        event-driven select; choose it with ``naive_issue=True``.
        """
        cycle = self.cycle
        head_index = self.rob.head_index
        threshold = self.distant_threshold
        for cluster in self.clusters:
            queue = cluster.issue_queue
            if not queue:
                continue
            cluster.fus.begin_cycle()
            issued_any = False
            for i, rec in enumerate(queue):
                if rec is None:
                    continue
                if (
                    rec.unknown_ops == 0
                    and rec.ready_time <= cycle
                    and rec.earliest_issue <= cycle
                    and cluster.fus.try_issue(rec.instr.op)
                ):
                    queue[i] = None
                    issued_any = True
                    self._do_issue(rec, cluster, head_index, threshold)
            if issued_any:
                cluster.issue_queue = [r for r in queue if r is not None]

    def _do_issue(self, rec: InFlight, cluster: Cluster, head_index: int, threshold: int) -> None:
        cycle = self.cycle
        instr = rec.instr
        rec.issued = True
        self.stats.issued += 1
        cluster.on_issue(rec, instr.op)
        if instr.index - head_index >= threshold:
            rec.distant = True

        # train the criticality predictor with the observed last-arriving
        # operand (both operands must have real producers)
        if instr.src1 >= 0 and instr.src2 >= 0:
            a0 = rec.op_avail[0] or 0
            a1 = rec.op_avail[1] or 0
            if a0 != a1:
                self.criticality.update(instr.pc, 1 if a1 > a0 else 0)

        op = instr.op
        if op is OpClass.LOAD:
            # address generation this cycle; data arrival set by the memory
            # system via drain_completions
            self.memory.address_ready(instr, cycle + _EXEC_LAT[op])
            return
        finish = cycle + _EXEC_LAT[op]
        if op is OpClass.STORE:
            # the store's address is ready now; completion additionally
            # waits for the data operand (tracked separately)
            rec.addr_done = finish
            data = rec.op_avail[1]
            rec.finish_cycle = None if data is None else max(finish, data)
            self.memory.address_ready(instr, finish)
            return
        rec.finish_cycle = finish
        if op is OpClass.BRANCH and self.fetch_unit.pending_mispredict == instr.index:
            redirect = self.network.uncontended_latency(rec.cluster, self._home)
            self.fetch_unit.branch_resolved(instr.index, finish + redirect)
        self._producer_finished(rec)

    def _dispatch(self) -> None:
        cycle = self.cycle
        if cycle < self._dispatch_stalled_until:
            return
        fetch_unit = self.fetch_unit
        rob = self.rob
        memory = self.memory
        choose = self.steering.choose
        width = self.config.front_end.dispatch_width
        dispatched = 0
        while dispatched < width:
            instr = fetch_unit.peek_ready(cycle)
            if instr is None or rob.full:
                break
            is_mem = instr.is_mem
            if is_mem and not memory.can_dispatch(instr):
                break
            producer_clusters = self._producer_clusters(instr)
            preferred = memory.preferred_cluster(instr) if is_mem else None
            # re-read each iteration: a controller's on_dispatch hook may
            # reconfigure mid-burst
            target = choose(instr, producer_clusters, self.active_clusters, preferred)
            if target is None:
                break
            if is_mem and not self._memory_slot_ok(instr, target):
                break
            fetch_unit.pop()
            self._allocate(instr, target)
            dispatched += 1
            if self._controller_wants_dispatch:
                self.controller.on_dispatch(instr, cycle)

    def _memory_slot_ok(self, instr: Instr, cluster: int) -> bool:
        """Post-steering LSQ check (the decentralized LSQ is per cluster)."""
        memory = self.memory
        lsq = getattr(memory, "lsq", None)
        if lsq is None:
            return True
        if hasattr(lsq, "can_allocate_load") and instr.is_load:
            return lsq.can_allocate_load(cluster)
        return memory.can_dispatch(instr)

    def _producer_clusters(self, instr: Instr) -> List[Tuple[int, int]]:
        records = self._records
        producers: List[Tuple[int, int]] = []
        src = instr.src1
        if src >= 0:
            rec = records.get(src)
            if rec is not None:
                producers.append((0, rec.cluster))
        src = instr.src2
        if src >= 0:
            rec = records.get(src)
            if rec is not None:
                producers.append((1, rec.cluster))
        return producers

    def _allocate(self, instr: Instr, target: int) -> None:
        cycle = self.cycle
        # non-uniform dispatch latency: the front end is co-located with the
        # home cluster; reaching a distant cluster takes extra hops (on the
        # dedicated front-end network, hence uncontended)
        dispatch_hops = self.network.uncontended_latency(self._home, target)
        rec = InFlight(instr, target, cycle, cycle + 1 + dispatch_hops)
        self._records[instr.index] = rec
        self._resolve_operand(rec, 0, instr.src1)
        self._resolve_operand(rec, 1, instr.src2)
        cluster = self.clusters[target]
        if rec.unknown_ops == 0:
            a0 = rec.op_avail[0] or 0
            a1 = 0 if rec.store_split else (rec.op_avail[1] or 0)
            rec.ready_time = a0 if a0 >= a1 else a1
            # the entry is fully resolved: schedule the cluster's next
            # select pass (always a future cycle, since earliest_issue is
            # at least cycle + 1)
            wake = rec.ready_time
            if rec.earliest_issue > wake:
                wake = rec.earliest_issue
            if wake < cluster.wake_cycle:
                cluster.wake_cycle = wake
        cluster.allocate(rec, instr.op, instr.has_dest)
        self.rob.push(rec)
        self.stats.dispatched += 1
        if instr.is_mem:
            self.memory.dispatch(instr, target, cycle)

    # ------------------------------------------------------------------
    # main loop

    def _step_stages(self) -> None:
        """One cycle of the reference loop, stage by stage."""
        self.cycle += 1
        self.stats.cycles = self.cycle
        if self.cycle >= self._next_fault:
            self._next_fault = self._fault_manager.advance(self.cycle)
        self.stats.cluster_cycle_product += self.effective_active_clusters
        self._drain_memory()
        self._commit()
        self._issue_naive()
        self._dispatch()
        self.fetch_unit.fetch(self.cycle)
        if self.cycle >= self._next_sample:
            self._emit_sample()
        if self.invariants is not None:
            self.invariants.maybe_check()

    def _wedged(self) -> SimulationError:
        return SimulationError(
            f"pipeline wedged: {self.stats.committed} committed in "
            f"{self.cycle} cycles"
        )

    def advance(
        self,
        target_committed: Optional[int] = None,
        *,
        max_cycles: Optional[int] = None,
        until_cycle: Optional[int] = None,
    ) -> bool:
        """Run until ``target_committed`` instructions have committed
        (``None``: no commit target) or the trace finishes.

        Returns ``True`` when that goal is reached and ``False`` when the
        clock reaches ``until_cycle`` first: the run then stops with
        ``cycle == until_cycle``, and a later call resumes it
        bit-identically, so a run advanced in cycle-bounded chunks equals
        one unbounded run.  ``max_cycles`` is the wedge guard: exceeding
        it raises :class:`SimulationError`.
        """
        target = _NEVER if target_committed is None else target_committed
        if self._core is not None:
            return self._core.advance(self, target, max_cycles, until_cycle)
        bound = _NEVER if until_cycle is None else until_cycle
        while self.stats.committed < target:
            if self.finished:
                return True
            if self.cycle >= bound:
                return False
            self._step_stages()
            if max_cycles is not None and self.cycle > max_cycles:
                raise self._wedged()
        return True

    def advance_to(self, target: int, deadline: Optional[float] = None) -> None:
        """Run until ``target`` instructions have committed or the trace
        finishes, under the wedge guard: passing
        ``max(10_000, target * _MAX_CPI)`` cycles raises
        :class:`SimulationError`.

        Without a ``deadline`` this is one :meth:`advance` call and reads
        no clock.  A ``deadline`` (a :func:`time.monotonic` value) splits
        the run into :data:`DEADLINE_CHUNK`-cycle advances, bit-identical
        to one, and raises :class:`RunTimeout` at the first chunk boundary
        past it.
        """
        max_cycles = max(10_000, target * _MAX_CPI)
        if deadline is None:
            self.advance(target, max_cycles=max_cycles)
            return
        while not self.advance(
            target, max_cycles=max_cycles, until_cycle=self.cycle + DEADLINE_CHUNK
        ):
            if time.monotonic() > deadline:
                raise RunTimeout(f"deadline passed at cycle {self.cycle}")

    def _emit_sample(self) -> None:
        """Periodic timeline sample: IPC over the window, occupancy."""
        cycle = self.cycle
        committed = self.stats.committed
        window = cycle - self._last_sample_cycle
        ipc = (committed - self._last_sample_committed) / window if window else 0.0
        self.tracer.emit(
            "sample",
            cycle=cycle,
            committed=committed,
            ipc=ipc,
            active_clusters=self.active_clusters,
            rob=len(self.rob),
        )
        self._last_sample_cycle = cycle
        self._last_sample_committed = committed
        self._next_sample = cycle + self.tracer.sample_period

    @property
    def finished(self) -> bool:
        return self.fetch_unit.exhausted and self.rob.empty

    def run(
        self,
        max_instructions: Optional[int] = None,
        *,
        deadline: Optional[float] = None,
    ) -> SimStats:
        """Run until the trace is exhausted or ``max_instructions`` commit.

        ``None`` means no limit (the whole trace).  The limit is
        *commit-bounded*: the run stops at the first cycle boundary at or
        past it, and since up to ``commit_width`` instructions retire per
        cycle, the committed count may overshoot ``max_instructions`` by at
        most ``commit_width - 1``.  Stopping mid-cycle would record a
        machine state no real cycle ever produced, so the overshoot is the
        contract (see ``tests/test_api.py``).  ``deadline`` is
        :meth:`advance_to`'s.
        """
        limit = max_instructions if max_instructions is not None else len(self.trace)
        limit = min(limit, len(self.trace))
        self.advance_to(limit, deadline)
        self.finalize()
        return self.stats

    def finalize(self) -> None:
        """The end-of-run step: close the fault manager's accounting and
        run the final invariant check.  :meth:`run` calls it, and so does
        the multiprog scheduler when a thread finishes."""
        if self._fault_manager is not None:
            self._fault_manager.finalize(self.cycle)
        if self.invariants is not None:
            self.invariants.check()

    def release(self) -> None:
        """Drop the controller, invariant checker and fault manager, which
        each point back here, so reference counting frees the finished run
        without a cyclic collection.  Every run owner calls this once the
        results are read, in a ``finally`` so a run that raises is freed
        too; the processor must not advance afterwards."""
        self.controller = self.invariants = self._fault_manager = None
