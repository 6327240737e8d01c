"""Structured tracing and metrics export (off by default, cheap when off).

The simulator's dynamic behaviour — exploration sweeps, instability-driven
interval growth, fine-grained table advice — is the paper's whole point,
but a run normally reports only its final :class:`~repro.stats.SimStats`.
This package adds an opt-in window into *why* a controller did what it did:

* :class:`Tracer` — the sink interface.  The default :data:`NULL_TRACER`
  is disabled and every emission site guards on ``tracer.enabled``, so an
  untraced run pays one attribute check per interval boundary and nothing
  per committed instruction.  Tracing is strictly read-only: a traced run
  is bit-identical to an untraced one.
* :class:`MemoryTracer` — in-memory sink.
* :class:`TraceSession` — directory sink: collects events, then writes
  ``events.jsonl``, ``timeline.csv``, and ``trace.json`` (Chrome
  trace-event format, loadable in Perfetto / ``chrome://tracing``).
* :mod:`~repro.observability.events` — the typed event schema
  (``EVENT_FIELDS``), pinned by a golden-file test.
* :mod:`~repro.observability.exporters` — JSONL / CSV / Chrome-trace
  converters, usable on any recorded event list.

Events are keyed by simulated time only (``cycle``, ``committed`` — never
wall-clock), so traces are deterministic and diffable across runs.

See ``docs/OBSERVABILITY.md`` for the event catalogue and a Perfetto
walkthrough.
"""

from __future__ import annotations

from .events import BASE_FIELDS, EVENT_FIELDS, validate_event
from .exporters import (
    chrome_trace,
    read_jsonl,
    spans_chrome_trace,
    write_chrome_trace,
    write_jsonl,
    write_timeline_csv,
)
from .tracer import (
    NULL_TRACER,
    MemoryTracer,
    Tracer,
    TraceSession,
)

__all__ = [
    "BASE_FIELDS",
    "EVENT_FIELDS",
    "MemoryTracer",
    "NULL_TRACER",
    "TraceSession",
    "Tracer",
    "chrome_trace",
    "read_jsonl",
    "spans_chrome_trace",
    "validate_event",
    "write_chrome_trace",
    "write_jsonl",
    "write_timeline_csv",
]
