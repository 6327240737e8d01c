"""Drives a processor through a :class:`FaultSchedule`.

The manager is owned by :class:`~repro.pipeline.processor.ClusteredProcessor`
and polled at the top of every simulated cycle with a single integer
compare (the same next-event pattern the tracer sampling uses), so a run
without a schedule pays one comparison and is bit-identical to a build
without this module.

Fault semantics (the graceful-degradation contract):

* **cluster_kill** — the cluster leaves the steerable set immediately
  (advance-warning model: the failure is announced before hard loss, so
  in-flight work drains naturally, exactly like the paper's
  reconfiguration drain).  Decentralized cache banks are remapped onto
  the surviving clusters (which flushes the L1, like any resize), a
  ``remap_start`` event fires, and when the dead cluster has fully
  drained a ``remap_done`` event records the recovery latency.
* **link_degrade** — delegated to the
  :class:`~repro.interconnect.network.Network`, which charges the wire's
  new latency on every later hop over it; routes never change.
* **fu_disable** — flips the per-cluster steering mask for one
  functional-unit pool; queued instructions still issue and drain.

Every fault is permanent: once degraded, the machine stays degraded to
the end of the run.

After every applied event the processor's controller is notified through
its ``on_fault`` hook so interval/exploration state can restart against
the new machine shape.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set

from .schedule import FaultEvent, FaultSchedule

#: poll sentinel: far beyond any reachable simulation cycle
NEVER = 1 << 60


class FaultManager:
    """Applies a :class:`FaultSchedule` to one processor, deterministically."""

    def __init__(self, schedule: FaultSchedule, processor) -> None:
        schedule.validate_for(processor.config)
        self.processor = processor
        self.schedule = schedule
        self._events: List[FaultEvent] = list(schedule.events)
        self._pos = 0
        #: killed clusters
        self.dead: Set[int] = set()
        #: killed clusters still draining in-flight work -> kill cycle
        self._draining: Dict[int, int] = {}
        #: per-cluster disabled functional-unit pools
        self._disabled: Dict[int, Set[str]] = {}
        #: cycle the machine became degraded (None = healthy)
        self._degraded_since: Optional[int] = None
        # validate link endpoints against the actual topology up front, so
        # a bad schedule fails at construction instead of mid-run
        network = processor.network
        for event in self._events:
            if event.kind == "link_degrade":
                network.require_link(event.src, event.dst)

    @property
    def next_cycle(self) -> int:
        """First cycle the processor must poll :meth:`advance` at."""
        if self._draining:
            return self.processor.cycle + 1
        if self._pos < len(self._events):
            return self._events[self._pos].cycle
        return NEVER

    # ------------------------------------------------------------------
    def advance(self, cycle: int) -> int:
        """Apply every event due at ``cycle`` and progress pending drains.

        Returns the next cycle the processor must call back at (``NEVER``
        once the schedule is exhausted and nothing is draining).
        """
        events = self._events
        while self._pos < len(events) and events[self._pos].cycle <= cycle:
            self._apply(events[self._pos], cycle)
            self._pos += 1
        if self._draining:
            self._check_drains(cycle)
        self._update_degraded(cycle)
        if self._draining:
            return cycle + 1
        if self._pos < len(events):
            return events[self._pos].cycle
        return NEVER

    def finalize(self, cycle: int) -> None:
        """Close the open degraded interval at end of run."""
        if self._degraded_since is not None:
            self.processor.stats.degraded_cycles += cycle - self._degraded_since
            self._degraded_since = None

    # ------------------------------------------------------------------
    def _apply(self, event: FaultEvent, cycle: int) -> None:
        p = self.processor
        kind = event.kind
        if kind == "cluster_kill":
            if event.cluster in self.dead:
                return  # idempotent: already dead
            self._count(event, "cluster_kills")
            self.dead.add(event.cluster)
            cluster = p.clusters[event.cluster]
            cluster.live = False
            cluster.refresh_steer_mask(self._disabled.get(event.cluster, ()))
            self._draining[event.cluster] = cycle
            p.refresh_live_clusters()
            self._emit(
                "remap_start",
                target=event.target_label(),
                live=p.config.num_clusters - len(self.dead),
            )
        elif kind == "fu_disable":
            units = self._disabled.setdefault(event.cluster, set())
            if event.unit in units:
                return
            units.add(event.unit)
            self._count(event, "fu_faults")
            p.clusters[event.cluster].refresh_steer_mask(units)
        elif kind == "link_degrade":
            if not p.network.degrade_link(event.src, event.dst, event.factor):
                return
            self._count(event, "links_degraded")
        on_fault = getattr(p.controller, "on_fault", None)
        if on_fault is not None:
            on_fault(event, cycle)

    def _count(self, event: FaultEvent, counter: str) -> None:
        stats = self.processor.stats
        stats.faults_injected += 1
        setattr(stats, counter, getattr(stats, counter) + 1)
        self._emit("fault_inject", fault=event.kind, target=event.target_label())

    def _check_drains(self, cycle: int) -> None:
        p = self.processor
        stats = p.stats
        for cid in sorted(self._draining):
            if p.clusters[cid].reset_for_drain_check():
                start = self._draining.pop(cid)
                latency = cycle - start
                stats.recovery_cycles += latency
                self._emit(
                    "remap_done", target=f"cluster:{cid}", latency=latency
                )

    def _update_degraded(self, cycle: int) -> None:
        """Open the degraded interval at the first applied fault; faults
        are permanent, so only :meth:`finalize` closes it."""
        if self._degraded_since is None and (
            self.dead
            or any(self._disabled.values())
            or self.processor.network.is_degraded
        ):
            self._degraded_since = cycle

    def _emit(self, kind: str, **fields) -> None:
        p = self.processor
        if p.tracer.enabled:
            p.tracer.emit(
                kind, cycle=p.cycle, committed=p.stats.committed, **fields
            )
