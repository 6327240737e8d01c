"""Simulation statistics.

Two layers:

* :class:`SimStats` — cumulative counters for one simulation run
  (instructions, cycles, communication, cache, predictor, reconfiguration),
  and :class:`RunResult`, the run's steady-state outcome built on them.
* :class:`IntervalWindow` — the per-interval deltas the run-time controllers
  observe (committed instructions, branches, memory references, IPC,
  distant-ILP count), mirroring the hardware event counters the paper's
  software algorithm reads.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Dict, Iterable, List


@dataclass
class SimStats:
    """Cumulative statistics for a single simulation run."""

    cycles: int = 0
    committed: int = 0
    fetched: int = 0
    dispatched: int = 0
    issued: int = 0
    #: always 0 (fetch stalls at a misprediction); the stats digests still hash it
    squashed: int = 0

    branches: int = 0
    mispredicts: int = 0
    memrefs: int = 0
    loads: int = 0
    stores: int = 0

    l1_hits: int = 0
    l1_misses: int = 0
    l2_hits: int = 0
    l2_misses: int = 0
    bank_conflict_cycles: int = 0

    # communication
    register_transfers: int = 0
    register_transfer_cycles: int = 0  # total latency incl. contention
    memory_transfers: int = 0
    memory_transfer_cycles: int = 0
    store_broadcasts: int = 0
    bank_predictions: int = 0
    bank_mispredictions: int = 0

    # distant ILP (instructions >= `distant_threshold` younger than ROB head
    # at issue, counted at commit)
    distant_commits: int = 0

    # reconfiguration
    reconfigurations: int = 0
    cache_flushes: int = 0
    flush_writebacks: int = 0
    flush_stall_cycles: int = 0
    cluster_cycle_product: int = 0  # sum over cycles of active cluster count

    # multiprogrammed arbitration (repro.multiprog): allocation churn and
    # the owned-cluster integral; zero for single-threaded runs
    arb_grants: int = 0
    arb_reclaims: int = 0
    owned_cluster_cycles: int = 0  # sum over cycles of owned cluster count

    # architectural faults (repro.resilience): injected events, degraded
    # operation, and recovery latency; zero for healthy runs
    faults_injected: int = 0
    cluster_kills: int = 0
    #: always 0 (links degrade but are never severed); the stats digests still hash it
    links_severed: int = 0
    links_degraded: int = 0
    fu_faults: int = 0
    degraded_cycles: int = 0  # cycles with >= 1 dead cluster or hurt link
    recovery_cycles: int = 0  # total kill-to-remap-done latency

    @property
    def ipc(self) -> float:
        return self.committed / self.cycles if self.cycles else 0.0

    @property
    def mispredict_interval(self) -> float:
        """Committed instructions per branch misprediction (Table 3)."""
        if self.mispredicts == 0:
            return float("inf")
        return self.committed / self.mispredicts

    @property
    def branch_accuracy(self) -> float:
        if self.branches == 0:
            return 1.0
        return 1.0 - self.mispredicts / self.branches

    @property
    def l1_hit_rate(self) -> float:
        total = self.l1_hits + self.l1_misses
        return self.l1_hits / total if total else 1.0

    @property
    def avg_register_transfer_latency(self) -> float:
        if self.register_transfers == 0:
            return 0.0
        return self.register_transfer_cycles / self.register_transfers

    @property
    def avg_active_clusters(self) -> float:
        if self.cycles == 0:
            return 0.0
        return self.cluster_cycle_product / self.cycles

    @property
    def bank_prediction_accuracy(self) -> float:
        if self.bank_predictions == 0:
            return 1.0
        return 1.0 - self.bank_mispredictions / self.bank_predictions

    @property
    def avg_owned_clusters(self) -> float:
        """Mean clusters owned per cycle under a multiprog arbiter."""
        if self.cycles == 0:
            return 0.0
        return self.owned_cluster_cycles / self.cycles

    def merge(self, other: "SimStats") -> "SimStats":
        """Accumulate ``other``'s counters into this object (in place).

        Every field of :class:`SimStats` is an additive counter, so merging
        per-run statistics yields exactly the statistics of the combined
        workload — this is what lets a parallel sweep aggregate its shards
        into one report.  Returns ``self`` for chaining.
        """
        for f in fields(self):
            setattr(self, f.name, getattr(self, f.name) + getattr(other, f.name))
        return self

    @classmethod
    def merged(cls, runs: Iterable["SimStats"]) -> "SimStats":
        """A fresh :class:`SimStats` holding the sum of ``runs``."""
        total = cls()
        for run in runs:
            total.merge(run)
        return total

    def snapshot(self) -> Dict[str, float]:
        """A plain-dict copy of the headline numbers, for reporting."""
        return {
            "cycles": self.cycles,
            "committed": self.committed,
            "ipc": self.ipc,
            "branch_accuracy": self.branch_accuracy,
            "mispredict_interval": self.mispredict_interval,
            "l1_hit_rate": self.l1_hit_rate,
            "avg_register_transfer_latency": self.avg_register_transfer_latency,
            "avg_active_clusters": self.avg_active_clusters,
            "reconfigurations": self.reconfigurations,
            "cache_flushes": self.cache_flushes,
        }


@dataclass(frozen=True)
class RunResult:
    """Steady-state outcome of one simulation (measurement excludes warmup).

    The one result type of the package: :func:`repro.api.simulate` returns
    it as ``SimResult`` and the sweep engine records it as ``RunResult``.
    """

    name: str
    label: str
    ipc: float
    committed: int
    cycles: int
    mispredict_interval: float
    avg_active_clusters: float
    reconfigurations: int
    stats: SimStats


@dataclass
class IntervalWindow:
    """Deltas of the controller-visible counters over one interval.

    The paper's run-time algorithm reads hardware event counters every
    ``interval_length`` committed instructions; this class is that view.
    The Table 4 instability analysis records one window per interval and
    replays them offline (the paper gathered these traces at
    10K-instruction granularity over billions of instructions).
    """

    committed: int = 0
    cycles: int = 0
    branches: int = 0
    memrefs: int = 0
    distant_commits: int = 0

    @property
    def ipc(self) -> float:
        return self.committed / self.cycles if self.cycles else 0.0


class IntervalTracker:
    """Derives :class:`IntervalWindow` deltas from cumulative `SimStats`."""

    def __init__(self, stats: SimStats) -> None:
        self._stats = stats
        self._last_committed = stats.committed
        self._last_cycles = stats.cycles
        self._last_branches = stats.branches
        self._last_memrefs = stats.memrefs
        self._last_distant = stats.distant_commits

    def since_last(self) -> IntervalWindow:
        """The window since the previous call (or construction)."""
        s = self._stats
        window = IntervalWindow(
            committed=s.committed - self._last_committed,
            cycles=s.cycles - self._last_cycles,
            branches=s.branches - self._last_branches,
            memrefs=s.memrefs - self._last_memrefs,
            distant_commits=s.distant_commits - self._last_distant,
        )
        self._last_committed = s.committed
        self._last_cycles = s.cycles
        self._last_branches = s.branches
        self._last_memrefs = s.memrefs
        self._last_distant = s.distant_commits
        return window


def merge_records(records: List[IntervalWindow], factor: int) -> List[IntervalWindow]:
    """Coalesce consecutive interval windows by ``factor``.

    Lets a single fine-grained recording be reanalysed at coarser interval
    lengths without rerunning the simulator.
    """
    if factor < 1:
        raise ValueError("factor must be >= 1")
    merged: List[IntervalWindow] = []
    for i in range(0, len(records) - factor + 1, factor):
        chunk = records[i : i + factor]
        merged.append(
            IntervalWindow(
                committed=sum(r.committed for r in chunk),
                cycles=sum(r.cycles for r in chunk),
                branches=sum(r.branches for r in chunk),
                memrefs=sum(r.memrefs for r in chunk),
                distant_commits=sum(r.distant_commits for r in chunk),
            )
        )
    return merged
