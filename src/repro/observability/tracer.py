"""Tracer sinks: no-op, in-memory, and directory session.

The contract every emission site relies on:

* ``tracer.enabled`` is a plain attribute, checked *before* building the
  event's keyword arguments — a disabled tracer costs one attribute read
  and a branch, never a dict construction.
* ``emit(kind, cycle=..., committed=..., **fields)`` records one event.
  Field order is the schema order (:mod:`repro.observability.events`);
  sinks preserve it (dicts are insertion-ordered), so serialized traces
  are byte-stable.
* ``sample_period`` (cycles) throttles the processor's periodic timeline
  samples; ``0`` disables sampling even on an enabled tracer.
* Tracers are passive observers: they must never touch simulator state,
  which is what makes a traced run bit-identical to an untraced one.
"""

from __future__ import annotations

import os
import pathlib
from typing import Dict, List, Union

from .exporters import write_chrome_trace, write_jsonl, write_timeline_csv

#: default cycles between periodic timeline samples
DEFAULT_SAMPLE_PERIOD = 1_000


class Tracer:
    """The sink interface; the base class is the disabled no-op."""

    #: emission sites skip all work when this is False
    enabled: bool = False
    #: cycles between processor timeline samples (0 = no sampling)
    sample_period: int = 0

    def emit(self, kind: str, **fields: object) -> None:
        """Record one event (no-op here)."""

    def close(self) -> None:
        """Flush and release any resources (no-op here)."""


#: the shared disabled tracer; ``is``-comparable and stateless
NULL_TRACER = Tracer()


class MemoryTracer(Tracer):
    """Collects events as dicts on ``self.events`` (tests, exporters)."""

    enabled = True

    def __init__(self, sample_period: int = DEFAULT_SAMPLE_PERIOD) -> None:
        self.sample_period = max(0, int(sample_period))
        self.events: List[Dict[str, object]] = []

    def emit(self, kind: str, **fields: object) -> None:
        event: Dict[str, object] = {"kind": kind}
        event.update(fields)
        self.events.append(event)


class TraceSession(MemoryTracer):
    """Directory sink: records in memory, exports everything on close.

    ``close()`` (idempotent) writes three files into ``directory``:

    * ``events.jsonl`` — the full event stream, one JSON object per line;
    * ``timeline.csv`` — the periodic ``sample`` events as a flat table
      (cycle, committed, ipc, active_clusters, rob);
    * ``trace.json`` — Chrome trace-event format: open it in Perfetto
      (https://ui.perfetto.dev) or ``chrome://tracing``.

    This is what ``repro.api.simulate(..., trace="some/dir")`` builds.
    """

    def __init__(
        self,
        directory: Union[str, os.PathLike],
        sample_period: int = DEFAULT_SAMPLE_PERIOD,
    ) -> None:
        super().__init__(sample_period)
        self.directory = pathlib.Path(directory)
        self.closed = False

    def close(self) -> None:
        if self.closed:
            return
        self.closed = True
        self.directory.mkdir(parents=True, exist_ok=True)
        write_jsonl(self.events, self.directory / "events.jsonl")
        write_timeline_csv(self.events, self.directory / "timeline.csv")
        write_chrome_trace(self.events, self.directory / "trace.json")
