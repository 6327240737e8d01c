"""Instability analysis (Section 4.1, Table 4).

The paper records IPC, branch frequency, and memory-reference frequency at
a fine interval granularity over a long run, then — offline, per candidate
interval length — walks the intervals marking each 'stable' or 'unstable'
relative to the reference interval at the start of its phase.  The
*instability factor* of an interval length is the fraction of unstable
intervals; the *minimum acceptable interval* is the shortest length whose
instability factor is below 5%.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from ..config import ProcessorConfig, default_config
from ..stats import IntervalWindow, merge_records
from ..workloads.instruction import Trace
from .controller import IntervalController
from .phase import PhaseDetectConfig, PhaseReference, compare_to_reference


class RecordingController(IntervalController):
    """Never reconfigures; records the :class:`IntervalWindow` of every
    ``granularity`` committed instructions for offline analysis."""

    def __init__(self, granularity: int) -> None:
        super().__init__(granularity)
        self.records: List[IntervalWindow] = []

    def on_interval(self, window: IntervalWindow, cycle: int) -> None:
        # each IntervalTracker.since_last() call returns a fresh window
        self.records.append(window)


def record_intervals(
    trace: Trace,
    config: Optional[ProcessorConfig] = None,
    granularity: int = 100,
    max_instructions: Optional[int] = None,
    *,
    deadline: Optional[float] = None,
) -> List[IntervalWindow]:
    """Simulate ``trace`` once, recording statistics every ``granularity``
    committed instructions.  ``deadline`` is
    :meth:`~repro.pipeline.processor.ClusteredProcessor.run`'s."""
    from ..pipeline.processor import ClusteredProcessor

    controller = RecordingController(granularity)
    processor = ClusteredProcessor(trace, config or default_config(), controller)
    try:
        processor.run(max_instructions, deadline=deadline)
    finally:
        processor.release()
    return controller.records


def instability_factor(
    records: Sequence[IntervalWindow],
    detect: PhaseDetectConfig = PhaseDetectConfig(),
) -> float:
    """Fraction of intervals flagged unstable (phase-change frequency).

    Walks the recorded intervals exactly as Section 4.1 describes: the
    first interval of each phase is the reference; an interval whose IPC,
    branch count, or memory-reference count differs significantly starts a
    new phase and counts as unstable.
    """
    if not records:
        return 0.0
    interval_length = records[0].committed
    reference: Optional[PhaseReference] = None
    unstable = 0
    for record in records:
        if reference is None:
            reference = PhaseReference(
                branches=record.branches, memrefs=record.memrefs, ipc=record.ipc
            )
            continue
        signals = compare_to_reference(record, reference, interval_length, detect)
        if signals.counts_changed or signals.ipc:
            unstable += 1
            reference = PhaseReference(
                branches=record.branches, memrefs=record.memrefs, ipc=record.ipc
            )
    return unstable / len(records)


@dataclass(frozen=True)
class InstabilityProfile:
    """Instability factors across interval lengths for one program."""

    granularity: int
    factors: Dict[int, float]  # interval length (instructions) -> factor

    def minimum_acceptable_interval(self, threshold: float = 0.05) -> Optional[int]:
        """The shortest interval length with instability below ``threshold``
        (Table 4's 'minimum acceptable interval length')."""
        for length in sorted(self.factors):
            if self.factors[length] < threshold:
                return length
        return None


def instability_profile(
    records: Sequence[IntervalWindow],
    granularity: int,
    factors_of: Sequence[int] = (1, 2, 4, 8, 16, 32, 64),
    detect: PhaseDetectConfig = PhaseDetectConfig(),
) -> InstabilityProfile:
    """Reanalyse one fine-grained recording at several interval lengths.

    ``factors_of`` are multipliers of the recording granularity; interval
    length ``granularity * f`` gets an instability factor for each ``f``.
    """
    factors: Dict[int, float] = {}
    for f in factors_of:
        merged = merge_records(list(records), f)
        if len(merged) < 4:
            break
        factors[granularity * f] = instability_factor(merged, detect)
    return InstabilityProfile(granularity=granularity, factors=factors)
