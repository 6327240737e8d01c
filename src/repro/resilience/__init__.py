"""Architectural fault model with reconfiguration-driven degradation.

The paper's reconfiguration machinery (drain in-flight work, restrict
dispatch, remap cache banks) is exactly what a resilient processor needs
when part of the fabric *fails*.  This package supplies:

* :class:`FaultSchedule` / :class:`FaultEvent` — a deterministic,
  cycle-scheduled description of permanent architectural faults
  (cluster kill, link degrade, functional-unit stuck-at-disabled),
  declared per single-thread run and keyed only to simulated cycles —
  never wall-clock time.
* :class:`FaultManager` — drives a :class:`ClusteredProcessor` through
  the schedule: marks clusters dead so steering stops targeting them,
  drains their in-flight work exactly like a reconfiguration step,
  remaps decentralized cache banks onto the surviving clusters, and
  slows degraded links.

The claim the model is kept for: the reconfiguration drain also absorbs
hardware faults (``docs/RESILIENCE.md`` names the tests that hold it).
Everything here is deterministic and tracer-passive: a faulted run is
bit-identical traced vs. untraced and serial vs. parallel (pinned by the
fingerprint suite).
"""

from .schedule import FAULT_KINDS, FU_POOLS, FaultEvent, FaultSchedule
from .manager import FaultManager

__all__ = [
    "FAULT_KINDS",
    "FU_POOLS",
    "FaultEvent",
    "FaultManager",
    "FaultSchedule",
]
