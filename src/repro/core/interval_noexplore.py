"""Interval-based reconfiguration without exploration (Section 4.3).

Instead of trying every configuration, the controller runs the first
interval of each phase with all 16 clusters while measuring the *degree of
distant ILP* (instructions that issued >= 120 entries younger than the ROB
head).  If the distant count exceeds a threshold (the paper uses 160 per
1000-instruction interval), the phase gets 16 clusters; otherwise it gets 4
(the paper's two most meaningful configurations).  Because there is no
exploration the reaction to a phase change is fast, so short fixed interval
lengths (1K instructions) become usable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..stats import IntervalWindow
from .controller import IntervalController
from .phase import (
    PhaseDetectConfig,
    PhaseReference,
    compare_to_reference,
    signal_fields,
)


@dataclass(frozen=True)
class NoExploreConfig:
    """Constants of the Section 4.3 scheme."""

    interval_length: int = 1_000
    #: distant instructions per interval above which the phase is judged to
    #: have distant ILP (paper: 160 per 1000)
    distant_fraction: float = 0.16
    small_config: int = 4
    large_config: int = 16
    #: intervals to let the pipeline refill after switching to the large
    #: configuration before trusting the distant-ILP measurement
    settle_intervals: int = 0
    detect: PhaseDetectConfig = field(default_factory=PhaseDetectConfig)

    @property
    def distant_threshold(self) -> float:
        return self.distant_fraction * self.interval_length

    @classmethod
    def scaled(cls, interval_length: int = 1_000) -> "NoExploreConfig":
        """Constants scaled for the trace-driven laptop model.

        The in-flight window stays deep even for branchy serial code, so
        the *absolute* distant-instruction fraction runs far above the
        paper's execution-driven measurements; the discriminating boundary
        sits near 62% here versus the paper's 16%.  Fetch stalls at a
        mispredicted branch, but wrong-path resource occupancy does not
        explain the rescaling: wrong-path work that held fetch, dispatch,
        issue-queue and register resources until the branch resolved was
        measured to move no cycle and no distant commit.  Wrong-path cache
        pollution and interconnect traffic are not modelled.  Short
        intervals also measure IPC noisily and straddle the drain/refill
        transient after a configuration switch, hence the settle interval
        and the wider IPC tolerance.
        """
        # the measurement may only start once the instructions issued under
        # the previous configuration have drained: one full ROB (480) of
        # commits, rounded up to whole intervals
        settle = max(1, -(-480 // interval_length))
        return cls(
            interval_length=interval_length,
            distant_fraction=0.62,
            settle_intervals=settle,
            detect=PhaseDetectConfig(ipc_tolerance=0.20),
        )


class DistantILPController(IntervalController):
    """The no-exploration interval scheme driven by the distant-ILP metric."""

    _MEASURING = "measuring"
    _SETTLED = "settled"

    def __init__(self, config: Optional[NoExploreConfig] = None) -> None:
        self.algo = config or NoExploreConfig()
        super().__init__(self.algo.interval_length)
        self._state = self._MEASURING
        self._settle_left = self.algo.settle_intervals  # cold-start fill
        self._reference: Optional[PhaseReference] = None
        self.phase_changes = 0
        self.choice_counts = {self.algo.small_config: 0, self.algo.large_config: 0}

    def attach(self, processor) -> None:
        super().attach(processor)
        self._large = min(self.algo.large_config, processor.config.num_clusters)
        self._small = min(self.algo.small_config, self._large)
        # measure with the full machine first
        if self.tracer.enabled:
            self._trace("measure_start", settle=self._settle_left)
        processor.set_active_clusters(self._large, reason="measure")

    def _enter_measurement(self) -> None:
        self._state = self._MEASURING
        self._settle_left = self.algo.settle_intervals
        self._reference = None
        if self.tracer.enabled:
            self._trace("measure_start", settle=self._settle_left)
        self.processor.set_active_clusters(self._large, reason="measure")

    def on_fault(self, event, cycle: int) -> None:
        """Re-measure the distant-ILP content on the degraded machine (the
        previous decision was made against hardware that no longer
        exists)."""
        super().on_fault(event, cycle)
        self._enter_measurement()

    def on_interval(self, window: IntervalWindow, cycle: int) -> None:
        if self._state == self._MEASURING:
            if self._settle_left > 0:
                self._settle_left -= 1
                return
            # decide from the distant-ILP content of the measured interval
            wants_large = window.distant_commits > self.algo.distant_threshold
            chosen = self._large if wants_large else self._small
            self.choice_counts[chosen] = self.choice_counts.get(chosen, 0) + 1
            self._reference = PhaseReference(
                branches=window.branches, memrefs=window.memrefs, ipc=None
            )
            self._state = self._SETTLED
            if self.tracer.enabled:
                self._trace(
                    "distant_decision",
                    distant=window.distant_commits,
                    threshold=self.algo.distant_threshold,
                    chosen=chosen,
                )
            self.processor.set_active_clusters(chosen, reason="distant-ilp")
            return

        signals = compare_to_reference(
            window, self._reference, self.interval_length, self.algo.detect
        )
        if self._reference.ipc is None:
            # first settled interval establishes the IPC reference
            self._reference.ipc = window.ipc
            return
        if signals.counts_changed or signals.ipc:
            self.phase_changes += 1
            if self.tracer.enabled:
                self._trace(
                    "phase_change",
                    instability=0.0,
                    interval_length=self.interval_length,
                    **signal_fields(signals),
                )
            self._enter_measurement()
