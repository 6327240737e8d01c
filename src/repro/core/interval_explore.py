"""Interval-based reconfiguration with exploration (Section 4.2, Figure 4).

At the start of each program phase the controller runs every candidate
configuration (2, 4, 8, 16 clusters) for one interval, records the IPCs,
picks the best, and keeps it until a phase change is detected.  Phase
changes are flagged by significant shifts in branch or memory-reference
counts (microarchitecture-independent, hence safe during exploration) or —
once a configuration is chosen — in IPC, filtered through the
``num_ipc_variations`` noise tolerance of Figure 4.

The interval length itself adapts: every phase change bumps an
``instability`` score (decayed slightly by each stable interval); when the
score exceeds a threshold the interval length doubles.  If the interval
length exceeds its cap the controller gives up and locks the most popular
configuration (Figure 4's ``discontinue_algorithm``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from ..stats import IntervalWindow
from .controller import IntervalController
from .phase import (
    PhaseDetectConfig,
    PhaseReference,
    PhaseSignals,
    compare_to_reference,
    signal_fields,
)


@dataclass(frozen=True)
class ExploreConfig:
    """Constants of the Figure 4 algorithm.

    The paper's values are ``initial_interval=10_000``,
    ``max_interval=1_000_000_000`` (one billion instructions), thresholds of
    5, and candidate configurations (2, 4, 8, 16).  ``scaled`` produces a
    laptop-trace variant with everything shrunk proportionally.
    """

    initial_interval: int = 10_000
    max_interval: int = 1_000_000_000
    candidates: Tuple[int, ...] = (2, 4, 8, 16)
    ipc_variation_threshold: float = 5.0  # THRESH1
    instability_threshold: float = 5.0  # THRESH2
    instability_increment: float = 1.0
    stability_decay: float = 0.125
    #: the hierarchical outer loop of Figure 4: statistics are inspected at
    #: this coarse granularity (the paper uses 100 billion instructions),
    #: and a *macrophase* change re-initializes the whole algorithm — the
    #: interval length, the give-up flag, everything.  0 disables it.
    macro_interval: int = 100_000_000_000
    #: cycles the software handler steals per interval invocation
    invocation_overhead: int = 0
    detect: PhaseDetectConfig = field(default_factory=PhaseDetectConfig)

    @classmethod
    def scaled(
        cls,
        initial_interval: int = 1_000,
        max_interval: int = 64_000,
        candidates: Tuple[int, ...] = (2, 4, 8, 16),
        ipc_tolerance: float = 0.20,
    ) -> "ExploreConfig":
        """Constants scaled for traces of 10^4-10^6 instructions.

        Sub-1K intervals measure IPC with far more sampling noise than the
        paper's 10K+ intervals, so the scaled variant widens the IPC
        significance threshold and doubles the interval length more
        aggressively (instability_increment 2 means three phase changes in
        quick succession trigger a doubling).
        """
        return cls(
            initial_interval=initial_interval,
            max_interval=max_interval,
            candidates=candidates,
            instability_increment=2.0,
            detect=PhaseDetectConfig(ipc_tolerance=ipc_tolerance),
        )


class IntervalExploreController(IntervalController):
    """The Figure 4 run-time algorithm."""

    _UNSTABLE = "unstable"
    _EXPLORING = "exploring"
    _STABLE = "stable"

    def __init__(self, config: Optional[ExploreConfig] = None) -> None:
        self.algo = config or ExploreConfig()
        super().__init__(
            self.algo.initial_interval, self.algo.invocation_overhead
        )
        self._state = self._UNSTABLE
        self._reference: Optional[PhaseReference] = None
        self._explored: Dict[int, float] = {}
        self._explore_pos = 0
        self._num_ipc_variations = 0.0
        self._instability = 0.0
        self.discontinued = False
        #: how often each configuration was chosen (for the give-up pick and
        #: for reporting the paper's "8.3 of 16 clusters disabled" figure)
        self.choice_counts: Dict[int, int] = {}
        self.phase_changes = 0
        # hierarchical macrophase detection
        self._macro_count = 0
        self._macro_ref: Optional[Tuple[int, int]] = None
        self._macro_branches = 0
        self._macro_memrefs = 0
        self.macrophase_changes = 0

    # ------------------------------------------------------------------
    def attach(self, processor) -> None:
        super().attach(processor)
        self._candidates = tuple(
            c for c in self.algo.candidates if c <= processor.config.num_clusters
        ) or (processor.config.num_clusters,)

    # ------------------------------------------------------------------
    # macrophase hierarchy

    def on_commit(self, instr, cycle: int, distant: bool) -> None:
        super().on_commit(instr, cycle, distant)
        if not self.algo.macro_interval:
            return
        self._macro_count += 1
        if self._macro_count >= self.algo.macro_interval:
            self._macro_boundary()

    def _macro_boundary(self) -> None:
        stats = self.processor.stats
        window = (
            stats.branches - self._macro_branches,
            stats.memrefs - self._macro_memrefs,
        )
        self._macro_count = 0
        self._macro_branches = stats.branches
        self._macro_memrefs = stats.memrefs
        if self._macro_ref is not None:
            threshold = self.algo.macro_interval / self.algo.detect.count_divisor
            if (
                abs(window[0] - self._macro_ref[0]) > threshold
                or abs(window[1] - self._macro_ref[1]) > threshold
            ):
                self.macrophase_changes += 1
                if self.tracer.enabled:
                    self._trace("macrophase", count=self.macrophase_changes)
                self._reinitialize()
        self._macro_ref = window

    def on_fault(self, event, cycle: int) -> None:
        """Exploration results measured on the old machine shape are
        meaningless on the new one: restart the whole algorithm, exactly
        like a macrophase change (Figure 4's re-initialization)."""
        super().on_fault(event, cycle)
        self._reinitialize()

    def _reinitialize(self) -> None:
        """Figure 4: a new macrophase re-initializes every variable,
        including the adapted interval length and the give-up flag."""
        self.interval_length = self.algo.initial_interval
        self._since_boundary = 0
        self._state = self._UNSTABLE
        self._reference = None
        self._explored = {}
        self._explore_pos = 0
        self._num_ipc_variations = 0.0
        self._instability = 0.0
        self.discontinued = False
        self.choice_counts = {}

    # ------------------------------------------------------------------
    def _begin_exploration(self, window: IntervalWindow, cycle: int) -> None:
        """The first clean interval of a new phase seeds the reference point
        and starts the exploration sweep."""
        self._reference = PhaseReference(
            branches=window.branches, memrefs=window.memrefs
        )
        self._explored = {}
        self._explore_pos = 0
        self._state = self._EXPLORING
        if self.tracer.enabled:
            self._trace("explore_start", candidates=list(self._candidates))
        self.processor.set_active_clusters(self._candidates[0], reason="explore")

    def _finish_exploration(self, cycle: int) -> None:
        best = max(self._explored, key=lambda c: self._explored[c])
        self._state = self._STABLE
        self._reference.ipc = self._explored[best]
        self._num_ipc_variations = 0.0
        self.choice_counts[best] = self.choice_counts.get(best, 0) + 1
        if self.tracer.enabled:
            self._trace(
                "explore_decision",
                chosen=best,
                explored=[[c, ipc] for c, ipc in sorted(self._explored.items())],
            )
        self.processor.set_active_clusters(best, reason="chosen")

    def _phase_change(
        self, cycle: int, signals: Optional[PhaseSignals] = None
    ) -> None:
        self.phase_changes += 1
        self._state = self._UNSTABLE
        self._reference = None
        self._num_ipc_variations = 0.0
        self._instability += self.algo.instability_increment
        if self.tracer.enabled:
            self._trace(
                "phase_change",
                instability=self._instability,
                interval_length=self.interval_length,
                **signal_fields(signals),
            )
        if self._instability > self.algo.instability_threshold:
            self.interval_length *= 2
            self._instability = 0.0
            if self.tracer.enabled:
                self._trace("interval_grow", interval_length=self.interval_length)
            if self.interval_length > self.algo.max_interval:
                self._discontinue(cycle)

    def _discontinue(self, cycle: int) -> None:
        """Give up reconfiguring; lock the most frequently chosen config."""
        self.discontinued = True
        if self.choice_counts:
            popular = max(self.choice_counts, key=lambda c: self.choice_counts[c])
        else:
            popular = self._candidates[-1]
        if self.tracer.enabled:
            self._trace("discontinue", locked=popular)
        self.processor.set_active_clusters(popular, reason="discontinued")

    # ------------------------------------------------------------------
    def on_interval(self, window: IntervalWindow, cycle: int) -> None:
        if self.discontinued:
            return

        if self._state == self._UNSTABLE:
            self._begin_exploration(window, cycle)
            return

        signals = compare_to_reference(
            window, self._reference, self.interval_length, self.algo.detect
        )

        if self._state == self._EXPLORING:
            if signals.counts_changed:
                self._phase_change(cycle, signals)
                return
            # key by the requested count: after a cluster kill the physical
            # window (active_clusters) is wider than the request
            clusters = self._candidates[self._explore_pos]
            self._explored[clusters] = window.ipc
            if self.tracer.enabled:
                self._trace("explore_sample", clusters=clusters, ipc=window.ipc)
            self._explore_pos += 1
            if self._explore_pos >= len(self._candidates):
                self._finish_exploration(cycle)
            else:
                self.processor.set_active_clusters(
                    self._candidates[self._explore_pos], reason="explore"
                )
            return

        # stable state
        if signals.counts_changed or (
            signals.ipc
            and self._num_ipc_variations > self.algo.ipc_variation_threshold
        ):
            self._phase_change(cycle, signals)
        elif signals.ipc:
            self._num_ipc_variations += 2.0
        else:
            self._num_ipc_variations = max(
                -2.0, self._num_ipc_variations - self.algo.stability_decay
            )
            self._instability = max(0.0, self._instability - self.algo.stability_decay)
