"""The production cycle loop.

A :class:`FusedCore` drives one :class:`ClusteredProcessor` through the
same cycle as the processor's stage-by-stage reference loop (selected
with ``naive_issue=True``), with three mechanical transformations that
change *nothing* observable:

1. **Stage fusion.**  The reference loop pays a per-cycle framing tax —
   the ``_drain_memory``/``_commit``/``_issue_naive``/``_dispatch``/
   ``fetch`` call chain plus each stage re-hoisting the same attributes.
   The fused loop transcribes the stage bodies inline, hoisting the
   objects that are only ever mutated in place (``rob._entries``,
   ``_records``, ``_done``, the fetch queue, the cluster list, the memory
   system) once per call.  Objects the pipeline *replaces* mid-run are
   re-read every cycle exactly where the original re-read them:
   ``memory._completions`` (swapped by the drain).

2. **Per-instruction helper fusion.**  The hottest per-instruction
   helpers — ``ProducerSteering.choose`` (including its ``owned``
   cluster mask), ``_producer_clusters``, ``_do_issue``, ``_allocate`` —
   are transcribed inline as well (their call overhead is comparable to
   their bodies), and the front-end dispatch-hop / misprediction-redirect
   latencies are memoized per destination: ``uncontended_latency`` is a
   pure function of topology and link-fault state, so the tables are
   rebuilt whenever the fault manager runs and are exact everywhere else.
   Steering heuristics other than :class:`ProducerSteering` (the Mod-N /
   first-fit ablations) go through the ordinary ``choose`` call.  Two
   call-elision rules are used where a helper call is provably a no-op:
   ``_resolve_operand`` on a negative source (the operand slot is already
   0) and ``_producer_finished`` with no waiters (it only clears an empty
   list).

3. **Event-driven select and idle-cycle skip.**  Every latency in the
   simulator is an absolute cycle number computed at scheduling time (see
   the module docstring of :mod:`repro.pipeline.processor`).  Each
   cluster carries ``wake_cycle``, the earliest cycle anything in its
   queue could issue, so the select scan skips clusters with nothing to
   do; a scan recomputes the next wake from the entries it leaves behind
   (a ready entry refused by FU bandwidth re-arms the cluster for the
   next cycle).  After a cycle in which no stage did any work the next
   cycle that *can* do work is computable: the minimum over the fault
   poll, the tracer sample point, the invariant check point, the ROB
   head's finish cycle, every cluster's ``wake_cycle``, the fetch unit's
   next possible fetch, and the dispatch stage's engagement cycle.  The
   clock jumps straight there, applying the only per-cycle side effect a
   no-work cycle has (``cluster_cycle_product`` accumulation) in closed
   form.

Three further exact caches ride on the same absolute-cycle property:

* the LSQ capacity gates and bank-predictor steering hints are inlined
  for both memory organizations, the only two ``build_memory`` makes
  (the decentralized gate's speculative token is minted exactly once per
  instruction, call-for-call where the original minted it);
* a *wake-front* lower bound over the clusters' ``wake_cycle`` values
  lets the issue scan be skipped entirely while no cluster can wake —
  re-derived in O(clusters) at every site that writes a wake;
* every ``_PRUNE_EVERY`` commits the link, bank-port and L2-port
  calendars forget their bookings before the ROB head's dispatch cycle
  (the current cycle when the ROB is empty).  No later request starts
  earlier — see :mod:`repro.timing` — and each calendar refuses one that
  does, so a pruned run grants the same slots as one that keeps every
  booking, while its memory stays bounded by the work in flight.  The
  next prune point lives on the processor, so runs advanced in short
  chunks prune too.  The reference loop keeps full calendars.

The skip probe is deliberately conservative — correctness never depends
on skipping:

* it only runs after a cycle whose every stage provably did nothing
  (and never with undrained memory completions pending);
* it never *mutates* on the probe path: when the fetch head is ready
  and the ROB has room, the next cycle is treated as active **unless**
  dispatch is provably blocked by pure reads alone — a full centralized
  LSQ, a full store-target bank set, every decentralized bank full for
  a load, or an empty feasibility walk of the default steering policy
  over its owned clusters (window/IQ/RF occupancy only; Mod-N/first-fit
  ablations always count as engageable);
* every quantity the blocked-dispatch proof reads is constant over the
  skip window: issue-queue slots free only at a ``wake_cycle``, regis-
  ters and the centralized LSQ free only at the ROB head's finish, and
  the decentralized release heap's head is added as a probe event
  whenever its occupancy gate is what blocks dispatch.

Because skipping less is always exact, a run advanced in cycle-bounded
chunks is bit-identical to one unbounded run: the multiprogrammed
scheduler relies on that to advance each thread one epoch segment at a
time.  Bit-identity with the reference loop is enforced by the
naive-vs-fused equivalence property
(``tests/pipeline/test_event_issue_equivalence.py``), the chunked-advance
property (``tests/pipeline/test_fused.py``), and the fingerprint goldens
(``tests/test_fingerprint.py``).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional, Tuple

from ..clusters.cluster import _IS_FP
from ..clusters.functional_units import EXEC_LATENCY
from ..clusters.steering import ProducerSteering
from ..errors import SimulationError
from ..memory.hierarchy import CentralizedMemory
from ..workloads.instruction import OpClass
from .rob import InFlight

if TYPE_CHECKING:  # pragma: no cover
    from .processor import ClusteredProcessor

#: execution latency indexed by OpClass value (avoids dict+enum hashing in
#: the issue loop)
_EXEC_LAT = tuple(EXEC_LATENCY[op] for op in OpClass)

#: cluster wake / next-event sentinel: far beyond any reachable cycle
_NEVER = 1 << 60

#: commits between booking prunes: a 1,500-instruction run prunes five
#: times, and a prune scans only the bookings of the work in flight
_PRUNE_EVERY = 256

_LOAD = OpClass.LOAD
_STORE = OpClass.STORE
_BRANCH = OpClass.BRANCH


class FusedCore:
    """The fused cycle loop of one processor.

    Every processor built without ``naive_issue`` owns one and drives
    ``run()``/``advance()`` through it; steering overrides may be
    installed at any time before an :meth:`advance` call.  The core
    holds no reference back to its processor (each call is handed it), so
    a finished run is freed by reference counting alone.
    """

    __slots__ = ("_disp_lat", "_redirect_lat")

    def __init__(self, processor: "ClusteredProcessor") -> None:
        if processor.naive_issue:
            raise SimulationError(
                "FusedCore transcribes the event-driven issue stage; "
                "naive_issue processors run the stage-by-stage loop"
            )
        self._disp_lat: Tuple[int, ...] = ()
        self._redirect_lat: Tuple[int, ...] = ()
        self._refresh_latency_tables(processor)

    def _refresh_latency_tables(self, p: "ClusteredProcessor") -> None:
        """Memoize the front-end network latencies per destination.

        ``uncontended_latency`` depends only on the topology and the
        per-link latency table, and only the fault manager changes the
        table — so the tables are rebuilt after every fault poll and are
        exact in between.
        """
        network = p.network
        home = p._home
        n = p.config.num_clusters
        lat = network.uncontended_latency
        self._disp_lat = tuple(lat(home, k) for k in range(n))
        self._redirect_lat = tuple(lat(k, home) for k in range(n))

    def advance(
        self,
        p: "ClusteredProcessor",
        target_committed: int,
        max_cycles: Optional[int] = None,
        until_cycle: Optional[int] = None,
    ) -> bool:
        """Run ``p`` until ``stats.committed`` reaches ``target_committed``
        or the trace finishes; see :meth:`ClusteredProcessor.advance`.

        Returns ``True`` when the goal is reached, ``False`` when the
        clock reached ``until_cycle`` first (the idle skip never jumps
        past it).  ``max_cycles`` enables the wedge guard with ``run()``'s
        semantics (checked after every executed cycle); ``None`` runs
        unguarded.
        """
        stats = p.stats
        fu = p.fetch_unit
        mem = p.memory
        rob = p.rob
        entries = rob._entries
        rob_size = rob.size
        clusters = p.clusters
        records = p._records
        done = p._done
        controller = p.controller
        on_commit = controller.on_commit if controller is not None else None
        wants_dispatch = p._controller_wants_dispatch
        resolve_operand = p._resolve_operand
        steer = p.steering
        # inline the default heuristic only when it is bound to exactly
        # the pipeline's cluster list; ablation policies take the call
        inline_steer = (
            type(steer) is ProducerSteering and steer.clusters is clusters
        )
        choose = steer.choose
        if inline_steer:
            imbalance = steer.imbalance_threshold
            predict_crit = steer.criticality.predict_critical_operand
        crit_update = p.criticality.update
        transfer = p.network.transfer
        # LSQ capacity gates, inlined per organization (``build_memory``
        # makes exactly one of the two).  The centralized gate is ``not
        # lsq.full`` (its entry dict is mutated in place); the
        # decentralized one reads the per-cluster occupancy list (also
        # in-place) and mints a bank-predictor token, memoized per
        # instruction index, so a single mint here is call-for-call
        # identical to the original gate + steering-hint pair.  The
        # distributed LSQ's release heap is mutated in place too.
        centralized = type(mem) is CentralizedMemory
        if centralized:
            clsq_entries = mem.lsq._entries
            clsq_cap = mem.lsq.capacity
            releases = None
        else:
            dlsq_occ = mem.lsq._occupancy
            dlsq_cap = mem.lsq.capacity
            pred_tokens = mem._pred_tokens
            predict_spec = mem.predictor.predict_speculative
            releases = mem.lsq._releases
        mem_commit = mem.commit
        mem_dispatch = mem.dispatch
        mem_forget = mem.forget_before
        net_forget = p.network.forget_before
        mem_address_ready = mem.address_ready
        commit_w = p.config.front_end.commit_width
        dispatch_w = p.config.front_end.dispatch_width
        threshold = p.distant_threshold
        qcap = fu.config.fetch_queue_size
        q = fu._queue
        trace_len = fu._trace_len
        fetch = fu.fetch
        branch_resolved = fu.branch_resolved
        inv = p.invariants
        never = _NEVER
        exec_lat = _EXEC_LAT
        is_fp = _IS_FP
        load_op = _LOAD
        store_op = _STORE
        branch_op = _BRANCH
        disp_lat = self._disp_lat
        redirect_lat = self._redirect_lat
        # the centralized memory system's tick is the base-class no-op
        lsq_tick = mem.tick

        cycle = p.cycle
        committed_total = stats.committed
        # the clock may run up to ``bound``; an idle skip lands at most on
        # the bound or on the wedge guard, so the guard fires on the next
        # executed cycle exactly as in run()
        bound = until_cycle if until_cycle is not None else never
        skip_cap = bound + 1
        if max_cycles is not None and max_cycles + 1 < skip_cap:
            skip_cap = max_cycles + 1
        # Wake-front cache for the issue scan: ``wake_min`` is kept an
        # exact lower bound on every cluster's ``wake_cycle``, so the scan
        # is skipped entirely while ``wake_min > cycle`` (the per-cluster
        # guard would have skipped each cluster anyway).  Wake mutations
        # the running scan cannot attribute — an issued instruction's
        # ``_producer_finished`` fan-out, a drained completion with
        # waiters, a fault-manager pass — are followed by an
        # O(num_clusters) re-min over the final values; the dispatch
        # stage's own wake writes are folded in directly.
        wake_min = 0
        while committed_total < target_committed:
            if not entries and fu._pos >= trace_len and not q:
                return True  # finished: trace exhausted and ROB drained
            if cycle >= bound:
                return False

            # -- cycle open (_step_stages preamble) -------------------
            cycle += 1
            p.cycle = cycle
            stats.cycles = cycle
            active = False
            if cycle >= p._next_fault:
                p._next_fault = p._fault_manager.advance(cycle)
                self._refresh_latency_tables(p)
                disp_lat = self._disp_lat
                redirect_lat = self._redirect_lat
                wake_min = never
                for cluster in clusters:
                    if cluster.wake_cycle < wake_min:
                        wake_min = cluster.wake_cycle
                active = True
            stats.cluster_cycle_product += p.effective_active_clusters

            # -- memory housekeeping + load-completion drain -----------
            if releases and releases[0][0] <= cycle:
                lsq_tick(cycle)
                active = True
            completions = mem._completions
            if completions:
                mem._completions = []
                for index, ready in completions:
                    rec = records.get(index)
                    if rec is None:
                        raise SimulationError(
                            f"completion for unknown load {index}"
                        )
                    rec.finish_cycle = ready
                    waiters = rec.waiters
                    if waiters:
                        # ---- _producer_finished (with
                        # _operand_available and operand_known),
                        # transcribed; the wake writes fold straight
                        # into the wake-front cache ----
                        pcl = rec.cluster
                        remote = rec.remote_ready
                        for consumer, pos in waiters:
                            ccl = consumer.cluster
                            if pcl == ccl:
                                avail = ready
                            else:
                                avail = remote.get(ccl)
                                if avail is None:
                                    avail = transfer(
                                        pcl, ccl, ready, kind="register"
                                    )
                                    remote[ccl] = avail
                            if pos == 1 and consumer.store_split:
                                consumer.op_avail[1] = avail
                                ad = consumer.addr_done
                                if ad is not None:
                                    consumer.finish_cycle = (
                                        avail if avail >= ad else ad
                                    )
                            else:
                                consumer.op_avail[pos] = avail
                                consumer.unknown_ops -= 1
                                if consumer.unknown_ops == 0:
                                    oa = consumer.op_avail
                                    a0 = oa[0] or 0
                                    a1 = (
                                        0
                                        if consumer.store_split
                                        else (oa[1] or 0)
                                    )
                                    consumer.ready_time = (
                                        a0 if a0 >= a1 else a1
                                    )
                            if consumer.unknown_ops == 0 and not consumer.issued:
                                wake = consumer.ready_time
                                if consumer.earliest_issue > wake:
                                    wake = consumer.earliest_issue
                                cl = clusters[ccl]
                                if wake < cl.wake_cycle:
                                    cl.wake_cycle = wake
                                if wake < wake_min:
                                    wake_min = wake
                        waiters.clear()
                active = True

            # -- commit ------------------------------------------------
            if entries:
                rec = entries[0]
                finish = rec.finish_cycle
                if finish is not None and finish <= cycle:
                    n = 0
                    while True:
                        entries.popleft()
                        n += 1
                        instr = rec.instr
                        stats.committed += 1
                        if instr.is_branch:
                            stats.branches += 1
                        elif instr.is_mem:
                            stats.memrefs += 1
                            stats.loads += instr.is_load
                            stats.stores += instr.is_store
                            mem_commit(instr, cycle)
                        if rec.distant:
                            stats.distant_commits += 1
                        clusters[rec.cluster].on_commit(instr.op, instr.has_dest)
                        done[instr.index] = (rec.cluster, finish)
                        del records[instr.index]
                        if on_commit is not None:
                            on_commit(instr, cycle, rec.distant)
                        if n >= commit_w or not entries:
                            break
                        rec = entries[0]
                        finish = rec.finish_cycle
                        if finish is None or finish > cycle:
                            break
                    committed_total = stats.committed
                    active = True
                    if committed_total >= p._next_prune:
                        p._next_prune = committed_total + _PRUNE_EVERY
                        horizon = (
                            entries[0].dispatch_cycle if entries else cycle
                        )
                        net_forget(horizon)
                        mem_forget(horizon)

            # -- issue/select (event-driven, _do_issue fused in) -------
            if wake_min <= cycle:
              head_index = entries[0].instr.index if entries else -1
              issued_total = False
              new_min = never
              for cluster in clusters:
                wc = cluster.wake_cycle
                if wc > cycle:
                    if wc < new_min:
                        new_min = wc
                    continue
                queue = cluster.issue_queue
                if not queue:
                    cluster.wake_cycle = never
                    continue
                cluster.fus.begin_cycle()
                issued_any = False
                next_wake = never
                for i, rec in enumerate(queue):
                    if rec is None:
                        continue
                    if rec.unknown_ops:
                        continue
                    ready = rec.ready_time
                    if rec.earliest_issue > ready:
                        ready = rec.earliest_issue
                    if ready <= cycle:
                        if cluster.fus.try_issue(rec.instr.op):
                            queue[i] = None
                            issued_any = True
                            # ---- _do_issue, transcribed ----
                            instr = rec.instr
                            rec.issued = True
                            stats.issued += 1
                            cluster.on_issue(rec, instr.op)
                            if instr.index - head_index >= threshold:
                                rec.distant = True
                            if instr.src1 >= 0 and instr.src2 >= 0:
                                a0 = rec.op_avail[0] or 0
                                a1 = rec.op_avail[1] or 0
                                if a0 != a1:
                                    crit_update(instr.pc, 1 if a1 > a0 else 0)
                            op = instr.op
                            if op is load_op:
                                mem_address_ready(instr, cycle + exec_lat[op])
                            elif op is store_op:
                                finish = cycle + exec_lat[op]
                                rec.addr_done = finish
                                data = rec.op_avail[1]
                                rec.finish_cycle = (
                                    None
                                    if data is None
                                    else (finish if finish >= data else data)
                                )
                                mem_address_ready(instr, finish)
                            else:
                                finish = cycle + exec_lat[op]
                                rec.finish_cycle = finish
                                if (
                                    op is branch_op
                                    and fu.pending_mispredict == instr.index
                                ):
                                    branch_resolved(
                                        instr.index,
                                        finish + redirect_lat[rec.cluster],
                                    )
                                waiters = rec.waiters
                                if waiters:
                                    # ---- _producer_finished, same
                                    # transcription as the drain's; the
                                    # post-scan re-min sees these wakes,
                                    # so no direct cache update here ----
                                    pcl = rec.cluster
                                    remote = rec.remote_ready
                                    for consumer, pos in waiters:
                                        ccl = consumer.cluster
                                        if pcl == ccl:
                                            avail = finish
                                        else:
                                            avail = remote.get(ccl)
                                            if avail is None:
                                                avail = transfer(
                                                    pcl,
                                                    ccl,
                                                    finish,
                                                    kind="register",
                                                )
                                                remote[ccl] = avail
                                        if (
                                            pos == 1
                                            and consumer.store_split
                                        ):
                                            consumer.op_avail[1] = avail
                                            ad = consumer.addr_done
                                            if ad is not None:
                                                consumer.finish_cycle = (
                                                    avail
                                                    if avail >= ad
                                                    else ad
                                                )
                                        else:
                                            consumer.op_avail[pos] = avail
                                            consumer.unknown_ops -= 1
                                            if consumer.unknown_ops == 0:
                                                oa = consumer.op_avail
                                                a0 = oa[0] or 0
                                                a1 = (
                                                    0
                                                    if consumer.store_split
                                                    else (oa[1] or 0)
                                                )
                                                consumer.ready_time = (
                                                    a0 if a0 >= a1 else a1
                                                )
                                        if consumer.unknown_ops == 0 and not consumer.issued:
                                            wake = consumer.ready_time
                                            if consumer.earliest_issue > wake:
                                                wake = consumer.earliest_issue
                                            cl = clusters[ccl]
                                            if wake < cl.wake_cycle:
                                                cl.wake_cycle = wake
                                    waiters.clear()
                        elif cycle < next_wake:
                            next_wake = cycle + 1
                    elif ready < next_wake:
                        next_wake = ready
                if issued_any:
                    cluster.issue_queue = [r for r in queue if r is not None]
                    active = True
                    issued_total = True
                cluster.wake_cycle = next_wake
                if next_wake < new_min:
                    new_min = next_wake
              if issued_total:
                # an issue's producer fan-out may have re-woken
                # clusters behind the scan head: re-min the final values
                new_min = never
                for cluster in clusters:
                    if cluster.wake_cycle < new_min:
                        new_min = cluster.wake_cycle
              wake_min = new_min

            # -- dispatch/steer (choose + _allocate fused in) ----------
            if cycle >= p._dispatch_stalled_until:
                dispatched = 0
                while dispatched < dispatch_w:
                    if not q or q[0][1] > cycle or len(entries) >= rob_size:
                        break
                    instr = q[0][0]
                    is_mem = instr.is_mem
                    # ---- LSQ gate + steering hint, per organization ----
                    preferred = None
                    if is_mem:
                        if centralized:
                            if len(clsq_entries) >= clsq_cap:
                                break
                        elif instr.is_store:
                            # gate first: the token is only minted
                            # once a store passes (original order)
                            banks = mem._banks
                            blocked = False
                            for k in banks:
                                if dlsq_occ[k] >= dlsq_cap:
                                    blocked = True
                                    break
                            if blocked:
                                break
                            token = pred_tokens.get(instr.index)
                            if token is None:
                                predicted, tok = predict_spec(instr.pc)
                                pred_tokens[instr.index] = (predicted, tok)
                            else:
                                predicted = token[0]
                            preferred = banks[predicted % len(banks)]
                        else:
                            # the load gate itself consults the
                            # predictor, so mint before checking
                            token = pred_tokens.get(instr.index)
                            if token is None:
                                predicted, tok = predict_spec(instr.pc)
                                pred_tokens[instr.index] = (predicted, tok)
                            else:
                                predicted = token[0]
                            banks = mem._banks
                            preferred = banks[predicted % len(banks)]
                            if dlsq_occ[preferred] >= dlsq_cap:
                                break
                    # ---- _producer_clusters, transcribed ----
                    producers: List[Tuple[int, int]] = []
                    src1 = instr.src1
                    if src1 >= 0:
                        prec = records.get(src1)
                        if prec is not None:
                            producers.append((0, prec.cluster))
                    src2 = instr.src2
                    if src2 >= 0:
                        prec = records.get(src2)
                        if prec is not None:
                            producers.append((1, prec.cluster))
                    # active window re-read each iteration: a controller's
                    # on_dispatch hook may reconfigure mid-burst
                    active_bound = p.active_clusters
                    if inline_steer:
                        # ---- ProducerSteering.choose, transcribed as a
                        # single pass: feasibility, the least-loaded
                        # argmin, and the preferred/producer membership
                        # probes all fold into one walk over the owned
                        # clusters inside the active window (occupancies
                        # cannot change mid-walk, so the captured values
                        # equal the original's post-scan reads) ----
                        needs_reg = instr.has_dest
                        op = instr.op
                        p0c = p1c = -1
                        if producers:
                            p0pos, p0c = producers[0]
                            if len(producers) == 2:
                                p1pos, p1c = producers[1]
                        least = -1
                        least_occ = never
                        pref_ok = p0_ok = p1_ok = False
                        p0_occ = p1_occ = 0
                        if is_fp[op]:
                            for k, c in steer._walk:
                                if k >= active_bound:
                                    break
                                if (
                                    c.steer_ok[op]
                                    and c._fp_iq < c._iq_cap
                                    and (not needs_reg or c._fp_regs < c._rf_cap)
                                ):
                                    occ = c._int_iq + c._fp_iq
                                    if occ < least_occ:
                                        least = k
                                        least_occ = occ
                                    if k == preferred:
                                        pref_ok = True
                                    if k == p0c:
                                        p0_ok = True
                                        p0_occ = occ
                                    if k == p1c:
                                        p1_ok = True
                                        p1_occ = occ
                        else:
                            for k, c in steer._walk:
                                if k >= active_bound:
                                    break
                                if (
                                    c.steer_ok[op]
                                    and c._int_iq < c._iq_cap
                                    and (not needs_reg or c._int_regs < c._rf_cap)
                                ):
                                    occ = c._int_iq + c._fp_iq
                                    if occ < least_occ:
                                        least = k
                                        least_occ = occ
                                    if k == preferred:
                                        pref_ok = True
                                    if k == p0c:
                                        p0_ok = True
                                        p0_occ = occ
                                    if k == p1c:
                                        p1_ok = True
                                        p1_occ = occ
                        if least < 0:
                            target = None
                        elif pref_ok:
                            target = preferred
                        else:
                            # usable-producer selection, order-preserving
                            if p0_ok and p1_ok:
                                if p0c == p1c:
                                    candidate = p0c
                                    cand_occ = p0_occ
                                else:
                                    crit = predict_crit(instr.pc)
                                    if p1pos == crit and p0pos != crit:
                                        candidate = p1c
                                        cand_occ = p1_occ
                                    else:
                                        candidate = p0c
                                        cand_occ = p0_occ
                            elif p0_ok:
                                candidate = p0c
                                cand_occ = p0_occ
                            elif p1_ok:
                                candidate = p1c
                                cand_occ = p1_occ
                            else:
                                candidate = -1
                                cand_occ = 0
                            if candidate < 0:
                                target = least
                            elif cand_occ - least_occ > imbalance:
                                target = least
                            else:
                                target = candidate
                    else:
                        target = choose(
                            instr, producers, active_bound, preferred
                        )
                    if target is None:
                        break
                    # ---- _memory_slot_ok, per organization.  Nothing
                    # between the gate above and here allocates, so the
                    # centralized re-check and the decentralized store
                    # re-check are provably the gate's own result; only a
                    # load steered away from its predicted bank needs the
                    # per-cluster occupancy looked at again. ----
                    if (
                        is_mem
                        and not centralized
                        and not instr.is_store
                        and dlsq_occ[target] >= dlsq_cap
                    ):
                        break
                    q.popleft()
                    # ---- _allocate, transcribed ----
                    rec = InFlight(
                        instr, target, cycle, cycle + 1 + disp_lat[target]
                    )
                    records[instr.index] = rec
                    if src1 >= 0:
                        resolve_operand(rec, 0, src1)
                    if src2 >= 0:
                        resolve_operand(rec, 1, src2)
                    cluster = clusters[target]
                    if rec.unknown_ops == 0:
                        a0 = rec.op_avail[0] or 0
                        a1 = 0 if rec.store_split else (rec.op_avail[1] or 0)
                        wake = a0 if a0 >= a1 else a1
                        rec.ready_time = wake
                        if rec.earliest_issue > wake:
                            wake = rec.earliest_issue
                        if wake < cluster.wake_cycle:
                            cluster.wake_cycle = wake
                        if wake < wake_min:
                            wake_min = wake
                    cluster.allocate(rec, instr.op, instr.has_dest)
                    entries.append(rec)  # rob.push; fullness checked above
                    stats.dispatched += 1
                    if is_mem:
                        mem_dispatch(instr, target, cycle)
                    dispatched += 1
                    if wants_dispatch:
                        controller.on_dispatch(instr, cycle)
                if dispatched:
                    active = True

            # -- fetch (gated exactly on fetch()'s early returns) ------
            if (
                fu.pending_mispredict is None
                and fu._pos < trace_len
                and cycle >= fu._stalled_until
                and len(q) < qcap
            ):
                fetch(cycle)
                active = True

            # -- sampling / invariants / wedge guard -------------------
            if cycle >= p._next_sample:
                p._emit_sample()
                active = True
            if inv is not None and cycle >= inv._next_check:
                inv._next_check = cycle + inv.period
                inv.check()
            if max_cycles is not None and cycle > max_cycles:
                raise p._wedged()
            if active or mem._completions:
                continue

            # -- idle probe: jump to the next possible event -----------
            nxt = cycle + 1
            t = p._next_fault
            if p._next_sample < t:
                t = p._next_sample
            if inv is not None and inv._next_check < t:
                t = inv._next_check
            if entries:
                f = entries[0].finish_cycle
                if f is not None and f < t:
                    t = f
            if wake_min < t:
                t = wake_min
            if (
                fu.pending_mispredict is None
                and fu._pos < trace_len
                and len(q) < qcap
            ):
                su = fu._stalled_until
                f = su if su > nxt else nxt
                if f < t:
                    t = f
            if q:
                start = p._dispatch_stalled_until
                if start < nxt:
                    start = nxt
                ready = q[0][1]
                if ready > start:
                    start = ready
                if start > nxt:
                    if start < t:
                        t = start
                elif len(entries) < rob_size:
                    # Dispatch would engage next cycle.  Decide from pure
                    # reads alone whether its head instruction is provably
                    # blocked — every input (cluster occupancies, the
                    # active window, the LSQ occupancy, the queue head) is
                    # constant until some probe event fires, so a block
                    # now is a block for the whole window.  The bank
                    # predictor is never consulted (minting a token early
                    # would diverge), so a decentralized load only counts
                    # as blocked when every bank's slice is full.
                    blocked = False
                    instr = q[0][0]
                    if instr.is_mem:
                        if centralized:
                            blocked = len(clsq_entries) >= clsq_cap
                        elif instr.is_store:
                            for k in mem._banks:
                                if dlsq_occ[k] >= dlsq_cap:
                                    blocked = True
                                    break
                        else:
                            blocked = True
                            for k in mem._banks:
                                if dlsq_occ[k] < dlsq_cap:
                                    blocked = False
                                    break
                    if not blocked and inline_steer:
                        # pure feasibility walk: no feasible owned cluster
                        # in the active window means choose() returns None
                        op = instr.op
                        needs_reg = instr.has_dest
                        blocked = True
                        active_bound = p.active_clusters
                        if is_fp[op]:
                            for k, c in steer._walk:
                                if k >= active_bound:
                                    break
                                if (
                                    c.steer_ok[op]
                                    and c._fp_iq < c._iq_cap
                                    and (
                                        not needs_reg
                                        or c._fp_regs < c._rf_cap
                                    )
                                ):
                                    blocked = False
                                    break
                        else:
                            for k, c in steer._walk:
                                if k >= active_bound:
                                    break
                                if (
                                    c.steer_ok[op]
                                    and c._int_iq < c._iq_cap
                                    and (
                                        not needs_reg
                                        or c._int_regs < c._rf_cap
                                    )
                                ):
                                    blocked = False
                                    break
                    if blocked:
                        # a distributed dummy-slot release can reopen the
                        # LSQ gate mid-window: make it a probe event (the
                        # heap head is already caught up past ``cycle``)
                        if releases and releases[0][0] < t:
                            t = releases[0][0]
                    else:
                        # feasible or undecidable (ablation steering): do
                        # not risk the mutating choose() probe — just run
                        # it
                        t = nxt
            if t > skip_cap:
                t = skip_cap
            skip = t - nxt
            if skip > 0:
                cycle += skip
                p.cycle = cycle
                stats.cycles = cycle
                stats.cluster_cycle_product += p.effective_active_clusters * skip
        return True
