"""Fine-grained reconfiguration at branch boundaries (Section 4.4).

Every Nth branch is a potential reconfiguration point.  A *reconfiguration
table* indexed by branch PC advises 4 or 16 clusters; a branch with no entry
runs with 16 clusters so its distant-ILP behaviour can be measured.  The
measurement hardware is the :class:`DistantWindow`: when a branch exits the
360-instruction committed window, the window's counter is one *sample* of
the distant ILP following that branch.  After M samples, the advised
configuration is computed and the entry becomes active.  The table is
flushed periodically so stale advice does not persist (Section 4.4 rebuilds
it every 10M instructions at negligible cost).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from ..workloads.instruction import Instr
from .controller import ReconfigurationController
from .distant_ilp import DEFAULT_WINDOW, DistantWindow


@dataclass(frozen=True)
class FineGrainConfig:
    """Constants of the branch-boundary scheme (paper defaults)."""

    branch_stride: int = 5  # attempt reconfiguration at every Nth branch
    samples_needed: int = 10  # M samples before an entry goes live
    window: int = DEFAULT_WINDOW
    #: distant instructions within the window above which the advice is the
    #: large configuration.  The paper's value is 160/1000 scaled to the
    #: 360-instruction window (= 58); this trace-driven model keeps much
    #: deeper windows and so runs far higher absolute distant fractions —
    #: the discriminating boundary sits near 62% (see
    #: NoExploreConfig.scaled), i.e. 223 of 360.  Fetch stalls at a
    #: misprediction, but wrong-path work holding fetch, dispatch,
    #: issue-queue and register resources was measured to move no cycle and
    #: no distant commit, so that occupancy does not explain the rescaling;
    #: wrong-path cache pollution and interconnect traffic are not modelled.
    distant_threshold: int = 223
    table_entries: int = 16 * 1024
    flush_period: int = 10_000_000
    small_config: int = 4
    large_config: int = 16


class _TableEntry:
    __slots__ = ("samples", "advised")

    def __init__(self) -> None:
        self.samples: List[int] = []
        self.advised: Optional[int] = None


class ReconfigTable:
    """The PC-indexed advice table.

    Modelled as tag-checked (a 16K-entry table made aliasing "a non-issue"
    in the paper, so we keep exact PC keys) with a bounded entry count.
    """

    def __init__(self, max_entries: int) -> None:
        if max_entries < 1:
            raise ValueError("max_entries must be positive")
        self.max_entries = max_entries
        self._entries: Dict[int, _TableEntry] = {}

    def __len__(self) -> int:
        return len(self._entries)

    def lookup(self, pc: int) -> Optional[int]:
        entry = self._entries.get(pc)
        return entry.advised if entry is not None else None

    def add_sample(
        self, pc: int, distant_count: int, config: FineGrainConfig
    ) -> Optional[int]:
        """Record one distant-ILP sample; on the Mth, compute the advice.

        Returns the advised configuration on the sample that brings the
        entry live (so callers can trace the training event), else None.
        """
        entry = self._entries.get(pc)
        if entry is None:
            if len(self._entries) >= self.max_entries:
                return None
            entry = _TableEntry()
            self._entries[pc] = entry
        if entry.advised is not None:
            return None  # paper: after M samples, stop updating
        entry.samples.append(distant_count)
        if len(entry.samples) >= config.samples_needed:
            mean = sum(entry.samples) / len(entry.samples)
            entry.advised = (
                config.large_config
                if mean >= config.distant_threshold
                else config.small_config
            )
            entry.samples = []
            return entry.advised
        return None

    def flush(self) -> None:
        self._entries.clear()


class FineGrainController(ReconfigurationController):
    """Reconfigures at every Nth branch using the reconfiguration table."""

    needs_dispatch_events = True

    def __init__(self, config: Optional[FineGrainConfig] = None) -> None:
        super().__init__()
        self.algo = config or FineGrainConfig()
        self.table = ReconfigTable(self.algo.table_entries)
        self.window = DistantWindow(self.algo.window)
        self._branch_count = 0
        self._since_flush = 0
        self.table_hits = 0
        self.table_misses = 0
        # hit/miss totals at the previous flush, for per-period trace deltas
        self._hits_at_flush = 0
        self._misses_at_flush = 0

    def attach(self, processor) -> None:
        super().attach(processor)
        self._large = min(self.algo.large_config, processor.config.num_clusters)
        self._small = min(self.algo.small_config, self._large)
        processor.set_active_clusters(self._large, reason="finegrain-init")

    # ------------------------------------------------------------------
    # measurement side (commit stream)

    def _tracked_pc(self, instr: Instr) -> int:
        """Which branches get samples recorded (subclasses narrow this)."""
        return instr.pc if instr.is_branch else -1

    def on_commit(self, instr: Instr, cycle: int, distant: bool) -> None:
        sample = self.window.push(self._tracked_pc(instr), distant)
        if sample is not None:
            pc, count = sample
            advised = self.table.add_sample(pc, count, self.algo)
            if advised is not None and self.tracer.enabled:
                self._trace("table_train", pc=pc, advised=advised)
        self._since_flush += 1
        if self._since_flush >= self.algo.flush_period:
            self._since_flush = 0
            if self.tracer.enabled:
                self._trace(
                    "table_flush",
                    entries=len(self.table),
                    hits=self.table_hits - self._hits_at_flush,
                    misses=self.table_misses - self._misses_at_flush,
                )
            self._hits_at_flush = self.table_hits
            self._misses_at_flush = self.table_misses
            self.table.flush()

    def on_fault(self, event, cycle: int) -> None:
        """Table advice was learned on the healthy machine; drop it and
        relearn against the degraded one (the regular periodic flush in
        miniature)."""
        if self.tracer.enabled:
            self._trace(
                "table_flush",
                entries=len(self.table),
                hits=self.table_hits - self._hits_at_flush,
                misses=self.table_misses - self._misses_at_flush,
            )
        self._hits_at_flush = self.table_hits
        self._misses_at_flush = self.table_misses
        self.table.flush()

    # ------------------------------------------------------------------
    # reconfiguration side (dispatch stream)

    def _should_attempt(self, instr: Instr) -> bool:
        if not instr.is_branch:
            return False
        self._branch_count += 1
        return self._branch_count % self.algo.branch_stride == 0

    def on_dispatch(self, instr: Instr, cycle: int) -> None:
        if not self._should_attempt(instr):
            return
        advised = self.table.lookup(instr.pc)
        if self.tracer.enabled:
            self._trace(
                "table_lookup",
                pc=instr.pc,
                hit=advised is not None,
                advised=advised,
            )
        if advised is None:
            self.table_misses += 1
            self.processor.set_active_clusters(self._large, reason="measure")
        else:
            self.table_hits += 1
            self.processor.set_active_clusters(
                min(advised, self._large), reason="table"
            )
