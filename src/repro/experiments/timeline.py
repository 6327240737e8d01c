"""Reconfiguration timelines: what a controller did, when.

Wraps any controller and records every active-cluster change with its cycle
and committed-instruction position, then renders an ASCII strip chart.
Useful for eyeballing controller behaviour (exploration sweeps, phase
tracking, fine-grained thrash) without a waveform viewer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from ..workloads.instruction import Instr

#: glyph per active-cluster count (log scale: 1..16)
_GLYPHS = {1: ".", 2: ":", 4: "|", 8: "#", 16: "@"}


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
        #: the machine's width before any event (known once attached)
        self._initial_clusters = 16

    # -- controller interface -------------------------------------------
    @property
    def needs_dispatch_events(self) -> bool:
        return getattr(self.inner, "needs_dispatch_events", False)

    def attach(self, processor) -> None:
        self._initial_clusters = processor.config.num_clusters
        self.inner.attach(_RecordingProxy(processor, self.events))

    def on_commit(self, instr: Instr, cycle: int, distant: bool) -> None:
        self.inner.on_commit(instr, cycle, distant)

    def on_dispatch(self, instr: Instr, cycle: int) -> None:
        self.inner.on_dispatch(instr, cycle)

    # -- rendering -------------------------------------------------------
    def render(self, total_committed: int, width: int = 64) -> str:
        """ASCII strip: one glyph per bucket of committed instructions.

        Legend: ``.`` 1, ``:`` 2, ``|`` 4, ``#`` 8, ``@`` 16 active clusters
        (nearest glyph for other counts).
        """
        if total_committed <= 0 or width <= 0:
            return ""
        per_bucket = max(1, total_committed // width)
        strip = []
        events = sorted(self.events, key=lambda e: e.committed)
        current = self._initial_clusters
        idx = 0
        for bucket in range(width):
            boundary = bucket * per_bucket
            while idx < len(events) and events[idx].committed <= boundary:
                current = events[idx].clusters
                idx += 1
            strip.append(_glyph(current))
        legend = "  (. 1  : 2  | 4  # 8  @ 16 clusters)"
        return "".join(strip) + legend


def _glyph(clusters: int) -> str:
    best = min(_GLYPHS, key=lambda k: abs(k - clusters))
    return _GLYPHS[best]
