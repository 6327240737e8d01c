"""Reconfiguration timelines: what a controller did, when.

Wraps any controller and records every active-cluster change with its cycle
and committed-instruction position.  The sweep wraps every run's controller
in one and returns the events on the run's ``RunRecord``, so exploration
sweeps, phase tracking and fine-grained thrash can be read after the fact.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from ..workloads.instruction import Instr


@dataclass(frozen=True)
class Reconfiguration:
    cycle: int
    committed: int
    clusters: int


class _RecordingProxy:
    """Pass-through to the processor that logs reconfigurations.

    A module-level class (rather than a closure inside ``attach``) so that
    an attached :class:`TimelineRecorder` stays picklable — sweep workers
    ship recorded controllers back across process boundaries.  It appends
    to the recorder's event list rather than holding the recorder, so the
    pair forms no reference cycle.
    """

    def __init__(self, processor, events: List[Reconfiguration]) -> None:
        # bypass __getattr__-era attribute lookups during construction
        object.__setattr__(self, "_processor", processor)
        object.__setattr__(self, "_events", events)

    def __getattr__(self, name):
        if name.startswith("_"):
            # during unpickling __getattr__ runs before __dict__ is
            # restored; recursing on _processor here would never terminate
            raise AttributeError(name)
        return getattr(self._processor, name)

    def set_active_clusters(self, n, reason=""):
        processor = self._processor
        before = processor.active_clusters
        processor.set_active_clusters(n, reason)
        if processor.active_clusters != before:
            self._events.append(
                Reconfiguration(
                    cycle=processor.cycle,
                    committed=processor.stats.committed,
                    clusters=processor.active_clusters,
                )
            )


class TimelineRecorder:
    """Controller decorator that records reconfiguration events.

    Forwards every hook to the wrapped controller while snooping
    ``set_active_clusters`` calls through a proxy processor handle.
    """

    def __init__(self, inner) -> None:
        self.inner = inner
        self.events: List[Reconfiguration] = []

    # -- controller interface -------------------------------------------
    @property
    def needs_dispatch_events(self) -> bool:
        return getattr(self.inner, "needs_dispatch_events", False)

    def attach(self, processor) -> None:
        self.inner.attach(_RecordingProxy(processor, self.events))

    def on_commit(self, instr: Instr, cycle: int, distant: bool) -> None:
        self.inner.on_commit(instr, cycle, distant)

    def on_dispatch(self, instr: Instr, cycle: int) -> None:
        self.inner.on_dispatch(instr, cycle)
