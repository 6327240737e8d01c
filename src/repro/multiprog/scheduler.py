"""The epoch-segment co-scheduler: N threads, one fabric, one global clock.

Each thread is a complete :class:`~repro.pipeline.processor.ClusteredProcessor`
(its own front end, ROB, renamer, and cache view) built over the full
physical cluster array.  Cluster *ownership* is the only coupling: a
thread dispatches only into clusters the
:class:`~repro.multiprog.ledger.ClusterLedger` says it owns (the
``owned`` mask of its :class:`~repro.clusters.steering.ProducerSteering`),
so the arbiters compete on placement — how far a thread's clusters are
from the home cluster and from each other on the real fabric.

Ownership changes only at epoch boundaries, and threads share no other
state, so between two boundaries every thread runs independently: the
scheduler advances each running thread through the fused cycle loop to
the next boundary (or to its finish) in one cycle-bounded call, then
accounts the segment's owned-cluster cycles in closed form.  A cycle-bounded advance is
bit-identical to stepping the same cycles one by one, so the result is
the same as a per-cycle lockstep loop.

Modelling notes (see ``docs/MULTIPROG.md``):

* Threads do not contend for each other's *links* — each processor owns
  a private :class:`~repro.interconnect.network.Network` instance.  The
  communication cost of a bad allocation shows up as longer routes, not
  as cross-thread queueing.
* Reconfiguration controllers are not co-scheduled; threads run with the
  ``none`` policy and the arbiter replaces the controller as the
  cluster-count decision maker.
* Reclaimed clusters leave the owner's dispatch mask immediately and
  drain for ``spec.drain_cycles`` before becoming grantable, mirroring
  the paper's drain-before-deactivate reconfiguration cost.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import List, Optional, Sequence

from ..clusters.steering import ProducerSteering
from ..config import TOPOLOGIES, ProcessorConfig
from ..errors import RunTimeout, SimulationError
from ..interconnect.network import build_topology
from ..observability.tracer import NULL_TRACER, Tracer
from ..pipeline.processor import _MAX_CPI, ClusteredProcessor
from ..stats import SimStats
from ..workloads.generator import generate_trace
from ..workloads.instruction import Trace
from ..workloads.profiles import get_profile
from .arbiters import ARBITERS, RoundRobinArbiter, StaticArbiter, ThreadView
from .ledger import ClusterLedger
from .spec import MultiProgResult, MultiProgSpec, ThreadResult

#: per-thread trace seeds are decorrelated with this stride so identical
#: profile names still produce independent instruction streams
SEED_STRIDE = 17


def thread_seed(seed: int, index: int) -> int:
    """The trace-generation seed of thread ``index``."""
    return seed + SEED_STRIDE * index


def fabric_config(spec: MultiProgSpec) -> ProcessorConfig:
    """The shared :class:`ProcessorConfig` of a multiprogrammed run."""
    return TOPOLOGIES[spec.topology](spec.clusters)


@dataclass
class _Thread:
    """Mutable per-thread bookkeeping, internal to the scheduler."""

    index: int
    workload: str
    processor: ClusteredProcessor
    steering: ProducerSteering
    running: bool = True


def _arbitrate(
    spec: MultiProgSpec,
    arbiter: RoundRobinArbiter,
    ledger: ClusterLedger,
    threads: List[_Thread],
    cycle: int,
    tracer: Tracer,
) -> None:
    """One epoch boundary: apply a dynamic arbiter's actions."""
    views = [
        ThreadView(t.index, not t.running, ledger.owned_by(t.index))
        for t in threads
    ]
    committed = sum(t.processor.stats.committed for t in threads)
    for action, index, cluster in arbiter.rebalance(views, ledger.free_clusters(cycle)):
        thread = threads[index]
        if action == "grant":
            ledger.grant(cluster, index, cycle)
            thread.processor.stats.arb_grants += 1
        else:
            if thread.running and len(ledger.owned_by(index)) <= 1:
                raise SimulationError(
                    f"arbiter {spec.arbiter!r} would starve unfinished "
                    f"thread {index} (reclaim of its last cluster "
                    f"{cluster} at cycle {cycle})"
                )
            ledger.reclaim(cluster, index, cycle, spec.drain_cycles)
            thread.processor.stats.arb_reclaims += 1
        if tracer.enabled:
            tracer.emit(
                f"arb_{action}",
                cycle=cycle,
                committed=committed,
                thread=index,
                cluster=cluster,
                arbiter=spec.arbiter,
                owned=len(ledger.owned_by(index)),
            )
    for thread in threads:
        thread.steering.set_owned(ledger.owned_by(thread.index))


def run_multiprog(
    spec: MultiProgSpec,
    tracer: Optional[Tracer] = None,
    traces: Optional[Sequence[Trace]] = None,
    *,
    deadline: Optional[float] = None,
) -> MultiProgResult:
    """Run one multiprogrammed spec to completion.

    Deterministic: the result is a pure function of ``spec``, and an
    attached ``tracer`` (sink for ``run_start``/``arb_grant``/
    ``arb_reclaim`` events) never perturbs it.  ``traces``, when given,
    are the threads' instruction streams, already generated with
    :func:`thread_seed` (the sweep passes its trace memo's copies);
    otherwise they are generated here.  ``deadline`` (a
    :func:`time.monotonic` value) is checked after every epoch segment:
    the first check past it raises :class:`RunTimeout`.  The run is
    bounded by the wedge guard, :data:`_MAX_CPI` global cycles per
    instruction, as a single-thread run is.
    """
    tracer = tracer if tracer is not None else NULL_TRACER
    config = fabric_config(spec)
    topology = build_topology(config.interconnect, config.num_clusters)
    arbiter = ARBITERS[spec.arbiter](spec.clusters, len(spec.workloads), topology)

    threads: List[_Thread] = []
    try:
        for index, workload in enumerate(spec.workloads):
            if traces is not None:
                trace = traces[index]
            else:
                trace = generate_trace(
                    get_profile(workload),
                    spec.trace_length,
                    seed=thread_seed(spec.seed, index),
                )
            processor = ClusteredProcessor(trace, config)
            threads.append(
                _Thread(index, workload, processor, processor.steering)
            )
        cycle = _co_schedule(spec, arbiter, threads, tracer, deadline)
    finally:
        for thread in threads:
            thread.processor.release()

    thread_results = tuple(
        ThreadResult(
            workload=thread.workload,
            index=thread.index,
            ipc=thread.processor.stats.ipc,
            committed=thread.processor.stats.committed,
            cycles=thread.processor.stats.cycles,
            stats=thread.processor.stats,
        )
        for thread in threads
    )
    merged = SimStats.merged(t.processor.stats for t in threads)
    return MultiProgResult(
        spec=spec, threads=thread_results, cycles=cycle, stats=merged
    )


def _co_schedule(
    spec: MultiProgSpec,
    arbiter: StaticArbiter,
    threads: List[_Thread],
    tracer: Tracer,
    deadline: Optional[float],
) -> int:
    """Run ``threads`` to completion; returns the final global cycle."""
    ledger = ClusterLedger(spec.clusters)
    total_instructions = sum(len(t.processor.trace) for t in threads)
    for index, block in enumerate(arbiter.initial_allocation()):
        for cluster in block:
            ledger.grant(cluster, index, 0)
    for thread in threads:
        thread.steering.set_owned(ledger.owned_by(thread.index))

    if tracer.enabled:
        tracer.emit(
            "run_start",
            cycle=0,
            committed=0,
            workload=spec.name,
            instructions=total_instructions,
            clusters=spec.clusters,
        )

    cycle = 0
    cycle_limit = _MAX_CPI * max(1, total_instructions)
    epoch = spec.epoch_cycles
    running = list(threads)
    while running:
        # one segment: up to the next epoch boundary or the wedge limit,
        # whichever comes first; ownership is constant inside
        end = (cycle // epoch + 1) * epoch
        if cycle_limit + 1 < end:
            end = cycle_limit + 1
        reached = cycle
        still_running: List[_Thread] = []
        for thread in running:
            processor = thread.processor
            processor.advance(until_cycle=end)
            processor.stats.owned_cluster_cycles += len(
                thread.steering.owned
            ) * (processor.cycle - cycle)
            if processor.cycle > reached:
                reached = processor.cycle
            if processor.finished:
                processor.finalize()
                thread.running = False
            else:
                still_running.append(thread)
        cycle = reached
        running = still_running
        # the static partition never changes, so only the dynamic
        # arbiters are consulted at epoch boundaries
        if running and cycle % epoch == 0 and isinstance(arbiter, RoundRobinArbiter):
            _arbitrate(spec, arbiter, ledger, threads, cycle, tracer)
        if cycle > cycle_limit:
            alive = [t.index for t in running]
            raise SimulationError(
                f"multiprog run wedged: {cycle} cycles for "
                f"{total_instructions} instructions (threads {alive} "
                f"still running)"
            )
        if deadline is not None and time.monotonic() > deadline:
            raise RunTimeout(f"deadline passed at global cycle {cycle}")
    return cycle
