"""Pluggable execution backends for :class:`~repro.experiments.sweep.SweepRunner`.

Two implementations of one protocol (:class:`~.base.ExecutionBackend`):

* :class:`~.serial.SerialBackend` — in-process, the determinism oracle;
* :class:`~.pool.ProcessPoolBackend` — ``ProcessPoolExecutor`` fan-out
  with solo-probe crash attribution, the one parallel backend.

Both produce bit-identical results for the same specs; the conformance
suite (``tests/experiments/test_backends.py``) proves it.
See ``docs/SWEEPS.md`` for the user-facing story.
"""

from __future__ import annotations

from typing import Optional

from ...errors import BackendError
from .base import BackendEventLog, Completion, ExecutionBackend
from .pool import ProcessPoolBackend
from .serial import SerialBackend

#: the spellings ``SweepConfig.backend`` accepts (besides ``"auto"``)
BACKEND_KINDS = ("serial", "process-pool")


def create_backend(
    kind: str,
    *,
    jobs: int = 1,
    timeout: Optional[float] = None,
) -> ExecutionBackend:
    """Build a backend by name (the ``SweepConfig.backend`` vocabulary)."""
    if kind == "serial":
        return SerialBackend(timeout=timeout)
    if kind == "process-pool":
        return ProcessPoolBackend(jobs, timeout=timeout)
    raise BackendError(
        f"unknown execution backend {kind!r}; choose from "
        f"{('auto',) + BACKEND_KINDS}"
    )


__all__ = [
    "BACKEND_KINDS",
    "BackendError",
    "BackendEventLog",
    "Completion",
    "ExecutionBackend",
    "ProcessPoolBackend",
    "SerialBackend",
    "create_backend",
]
