"""Reconfiguration controller interface and the static baselines.

A controller observes the committed instruction stream through two hooks
(the paper's "hardware event counters" view) and reconfigures the machine by
calling ``processor.set_active_clusters(n)``:

* ``on_commit(instr, cycle, distant)`` — every committed instruction, with
  its distant-ILP mark;
* ``on_dispatch(instr, cycle)`` — every dispatched instruction, delivered
  only when the controller sets ``needs_dispatch_events`` (used by the
  fine-grained schemes, which react at branch boundaries in the front end).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from ..errors import ConfigError
from ..observability.tracer import NULL_TRACER, Tracer
from ..stats import IntervalTracker
from ..workloads.instruction import Instr

if TYPE_CHECKING:  # pragma: no cover
    from ..pipeline.processor import ClusteredProcessor


class ReconfigurationController:
    """Base class; does nothing (the machine stays fully enabled)."""

    needs_dispatch_events = False

    def __init__(self) -> None:
        self.processor: Optional["ClusteredProcessor"] = None
        #: picked up from the processor at attach; stays the no-op default
        #: under bare test harnesses that attach mock processors
        self.tracer: Tracer = NULL_TRACER

    def attach(self, processor: "ClusteredProcessor") -> None:
        self.processor = processor
        self.tracer = getattr(processor, "tracer", NULL_TRACER)

    def _trace(self, kind: str, **fields: object) -> None:
        """Emit one event stamped with the current simulated position.

        Call sites still guard on ``self.tracer.enabled`` first so the
        keyword-argument dict is never built for a disabled tracer.
        """
        tracer = self.tracer
        if tracer.enabled:
            processor = self.processor
            tracer.emit(
                kind,
                cycle=processor.cycle,
                committed=processor.stats.committed,
                **fields,
            )

    def on_commit(self, instr: Instr, cycle: int, distant: bool) -> None:
        """Called once per committed instruction."""

    def on_dispatch(self, instr: Instr, cycle: int) -> None:
        """Called once per dispatched instruction (opt-in)."""

    def on_fault(self, event, cycle: int) -> None:
        """Called after an architectural fault event is applied (see
        :mod:`repro.resilience`).  Default: nothing — static policies
        simply live on the remapped machine."""


class StaticController(ReconfigurationController):
    """Fixes the active cluster count once at the start of the run.

    ``StaticController(4)`` on a 16-cluster machine is the paper's "static 4"
    base case: 4 active clusters but the full 16-cluster communication
    geometry (the disabled clusters still occupy ring positions).
    """

    def __init__(self, num_clusters: int) -> None:
        super().__init__()
        if num_clusters < 1:
            raise ValueError("num_clusters must be positive")
        self.num_clusters = num_clusters

    def attach(self, processor: "ClusteredProcessor") -> None:
        machine = processor.config.num_clusters
        if self.num_clusters > machine:
            # the other controllers' requests are clamped to the machine;
            # a fixed count it cannot run would mislabel the whole run
            raise ConfigError(
                f"static-{self.num_clusters} asks for {self.num_clusters} "
                f"clusters, but the machine has {machine}"
            )
        super().attach(processor)
        processor.set_active_clusters(self.num_clusters, reason="static")


class IntervalController(ReconfigurationController):
    """Shared machinery for interval-based controllers: fires
    ``on_interval(window)`` every ``interval_length`` committed instructions.

    Subclasses may change ``interval_length`` between intervals (the
    variable-interval mechanism of Section 4.2).
    """

    def __init__(self, interval_length: int, invocation_overhead: int = 0) -> None:
        super().__init__()
        if interval_length < 1:
            raise ValueError("interval_length must be positive")
        if invocation_overhead < 0:
            raise ValueError("invocation_overhead must be non-negative")
        self.interval_length = interval_length
        #: cycles the software handler steals per invocation (the paper
        #: estimates well under 1% even at 10K-instruction intervals)
        self.invocation_overhead = invocation_overhead
        self._tracker: Optional[IntervalTracker] = None
        self._since_boundary = 0

    def attach(self, processor: "ClusteredProcessor") -> None:
        super().attach(processor)
        self._tracker = IntervalTracker(processor.stats)
        self._since_boundary = 0

    def on_commit(self, instr: Instr, cycle: int, distant: bool) -> None:
        self._since_boundary += 1
        if self._since_boundary >= self.interval_length:
            self._since_boundary = 0
            if self.invocation_overhead:
                self.processor.stall_dispatch_for(self.invocation_overhead)
            window = self._tracker.since_last()
            if self.tracer.enabled:
                self._trace(
                    "interval",
                    controller=type(self).__name__,
                    interval_length=self.interval_length,
                    ipc=window.ipc,
                    branches=window.branches,
                    memrefs=window.memrefs,
                    distant=window.distant_commits,
                )
            self.on_interval(window, cycle)

    def on_fault(self, event, cycle: int) -> None:
        """The machine changed shape mid-interval, so the window's counters
        mix measurements from two different machines; restart the interval
        boundary cleanly."""
        self._since_boundary = 0
        if self._tracker is not None:
            self._tracker.since_last()

    def on_interval(self, window, cycle: int) -> None:
        raise NotImplementedError
