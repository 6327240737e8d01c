"""The execution-backend protocol behind :class:`~repro.experiments.sweep.SweepRunner`.

The sweep engine separates *policy* from *mechanism*:

* The runner owns policy — caching, journaling/resume, retry/backoff,
  crash counting and quarantine, SIGINT/SIGTERM draining, metrics.
* An :class:`ExecutionBackend` owns mechanism — it takes ``(index, spec)``
  submissions and hands back :class:`Completion` objects, however it
  likes: inline (:class:`~.serial.SerialBackend`) or across a process
  pool (:class:`~.pool.ProcessPoolBackend`).

The contract that keeps every backend bit-identical to the serial oracle:

* every submitted spec eventually yields exactly one :class:`Completion`
  (or is returned from :meth:`ExecutionBackend.cancel`);
* a completion carries either a structured
  :class:`~repro.experiments.sweep.RunRecord` (``ok``/``failed``/
  ``timeout`` — workers never raise) or ``crashed=True`` meaning the
  executing worker *died* and this spec is provably the culprit (it was
  running alone on that worker);
* backends never retry, never poison, never touch the cache or journal —
  a resubmitted spec is a fresh submission.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple


@dataclass
class Completion:
    """One finished (or dead) submission flowing back to the runner.

    ``crashed=True`` means the worker executing this spec hard-died
    (segfault, ``os._exit``, SIGKILL) with the spec
    provably at fault — the runner counts it toward quarantine.
    ``dropped=True`` means the backend discarded the spec without running
    it (only after :meth:`ExecutionBackend.cancel`, during a drain); the
    runner leaves its slot unfilled, exactly like a never-started spec.
    """

    index: int
    spec: object
    record: Optional[object] = None  # RunRecord unless crashed/dropped
    crashed: bool = False
    dropped: bool = False
    #: seconds between submission and execution start (0 for serial)
    queue_seconds: float = 0.0
    #: identity of the executing worker, for trace events
    worker: str = ""


class ExecutionBackend(abc.ABC):
    """Pluggable spec-execution mechanism for :class:`SweepRunner`.

    Lifecycle: ``start()`` → any number of ``submit()``/``drain()``
    rounds (``cancel()`` at most once, during a drain) → ``close()``.
    Backends are single-use; the runner builds a fresh one per
    ``run()``.  Also usable as a context manager.
    """

    #: human-readable backend name, reported in metrics/trace events
    kind: str = "backend"

    def start(self) -> None:
        """Acquire workers.  Raises ``BackendError`` if none can be had."""

    @abc.abstractmethod
    def submit(self, index: int, spec: object, solo: bool = False) -> None:
        """Enqueue one spec.  ``solo=True`` asks for isolated execution
        (the runner resubmits crash suspects this way so a second crash
        stays provably attributable); backends with natural one-spec-
        per-worker isolation may ignore it."""

    @abc.abstractmethod
    def drain(self) -> List[Completion]:
        """Block until at least one submission finishes; return all that
        have.  Returns ``[]`` only when nothing is outstanding.  Raises
        ``BackendError`` when every worker is gone and no progress is
        possible."""

    def cancel(self) -> List[Tuple[int, object]]:
        """Discard work not yet started; return the ``(index, spec)``
        pairs discarded.  In-flight work keeps running to completion —
        this is a drain, not an abort."""
        return []

    def stats(self) -> Dict[str, object]:
        """JSON-serializable backend telemetry, merged into the sweep
        metrics snapshot (``kind``, worker counts, ``respawns``, and a
        wall-clock ``events`` list for the Perfetto export).  The runner
        reads it after :meth:`close`, so it must still work then."""
        return {"kind": self.kind}

    def close(self) -> None:
        """Release workers.  Idempotent; never raises."""

    # -- context manager ------------------------------------------------
    def __enter__(self) -> "ExecutionBackend":
        self.start()
        return self

    def __exit__(self, *exc) -> bool:
        self.close()
        return False


@dataclass
class BackendEventLog:
    """Wall-clock backend lifecycle events (relative seconds).

    These are *harness* telemetry, deliberately separate from the
    cycle-keyed simulator event schema in ``repro.observability.events``
    (which is diff-stable and carries no wall clock): they land in the
    ``backend`` section of ``sweep_metrics.json`` and as Perfetto instant
    events in ``sweep_trace.json``.
    """

    clock0: float = 0.0
    events: List[Dict[str, object]] = field(default_factory=list)
    limit: int = 10_000

    def emit(self, event: str, t: float, **details: object) -> None:
        if len(self.events) >= self.limit:  # pragma: no cover - runaway guard
            return
        entry: Dict[str, object] = {"event": event, "t": round(t - self.clock0, 6)}
        entry.update(details)
        self.events.append(entry)
