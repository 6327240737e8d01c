"""Declarative multiprogrammed-run specification and result types."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence, Tuple

from ..config import FABRICS
from ..errors import ConfigError
from ..resilience import FaultSchedule
from ..stats import SimStats
from ..workloads.profiles import BENCHMARK_NAMES

#: the co-scheduler models at most this many hardware threads
MAX_THREADS = 4

#: default per-thread trace length (shorter than the single-thread default:
#: a multiprog run simulates one processor per thread)
DEFAULT_TRACE_LENGTH = 20_000


@dataclass(frozen=True)
class MultiProgSpec:
    """Everything needed to reproduce one multiprogrammed run, by value.

    ``workloads`` names 2-4 benchmark profiles (1 is allowed as the
    degenerate solo case, used by baselines and tests).  Each thread's
    trace is generated with a decorrelated seed
    (:func:`~repro.multiprog.scheduler.thread_seed`), so co-scheduling
    ``("gzip", "gzip")`` still runs two *different* instruction streams.

    Like :class:`~repro.experiments.sweep.RunSpec`, the spec is frozen,
    picklable, and a few hundred bytes — traces are regenerated on the
    worker side.
    """

    workloads: Tuple[str, ...]
    trace_length: int = DEFAULT_TRACE_LENGTH
    seed: int = 7
    topology: str = "ring"
    arbiter: str = "static"
    clusters: int = 16
    #: cycles between arbiter invocations
    epoch_cycles: int = 2_000
    #: cycles a reclaimed cluster drains before it is grantable again
    drain_cycles: int = 30
    #: architectural fault schedule applied at the *global* clock; only
    #: cluster kinds make sense here — ownership is the coupling between
    #: threads, so a fault fails a cluster in the shared ledger rather
    #: than inside any one thread's private pipeline.  No home-cluster
    #: protection: losing dispatch rights to cluster 0 is exactly an
    #: arbiter reclaim, not machine death.
    faults: Optional[FaultSchedule] = None
    #: reporting name only — excluded from the repr (and therefore from
    #: RunSpec.cache_key, which interpolates ``multiprog={...!r}``), for
    #: the same reason RunSpec.label is exempt: relabeling an exhibit
    #: must not fork its cache entries
    label: str = field(default="", repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "workloads", tuple(self.workloads))
        if not 1 <= len(self.workloads) <= MAX_THREADS:
            raise ConfigError(
                f"multiprog needs 1..{MAX_THREADS} workloads, got "
                f"{len(self.workloads)}"
            )
        for workload in self.workloads:
            if workload not in BENCHMARK_NAMES:
                raise ConfigError(
                    f"unknown workload {workload!r}; choose from "
                    f"{BENCHMARK_NAMES}"
                )
        # memory organization is orthogonal and stays centralized (the
        # shared home cluster hosts the cache), so only the fabrics apply
        if self.topology not in FABRICS:
            raise ConfigError(
                f"unknown multiprog topology {self.topology!r}; choose "
                f"from {FABRICS}"
            )
        from .arbiters import ARBITERS

        if self.arbiter not in ARBITERS:
            raise ConfigError(
                f"unknown arbiter {self.arbiter!r}; choose from "
                f"{tuple(sorted(ARBITERS))}"
            )
        if self.clusters < len(self.workloads):
            raise ConfigError(
                f"{len(self.workloads)} threads cannot share "
                f"{self.clusters} clusters (every unfinished thread keeps "
                f"at least one)"
            )
        if self.trace_length < 1:
            raise ConfigError("trace_length must be positive")
        if self.epoch_cycles < 1:
            raise ConfigError("epoch_cycles must be positive")
        if self.drain_cycles < 0:
            raise ConfigError("drain_cycles cannot be negative")
        if self.faults is not None:
            for event in self.faults.events:
                if event.kind not in ("cluster_kill", "cluster_restore"):
                    raise ConfigError(
                        f"multiprog fault schedules support cluster_kill/"
                        f"cluster_restore only, got {event.kind!r} (link and "
                        "FU faults live inside a single thread's fabric)"
                    )
                if event.cluster >= self.clusters:
                    raise ConfigError(
                        f"{event.kind} targets cluster {event.cluster}, but "
                        f"the fabric has {self.clusters} clusters"
                    )

    @property
    def name(self) -> str:
        """The run's display name, e.g. ``"gzip+swim"``."""
        return "+".join(self.workloads)

    def resolved_label(self) -> str:
        return self.label or self.arbiter


@dataclass(frozen=True)
class ThreadResult:
    """One thread's whole-run outcome (no warmup exclusion — threads
    interact from cycle 0, so there is no steady state to isolate)."""

    workload: str
    index: int
    ipc: float
    committed: int
    cycles: int
    stats: SimStats

    @property
    def avg_owned_clusters(self) -> float:
        return self.stats.avg_owned_clusters


@dataclass(frozen=True)
class MultiProgResult:
    """Outcome of one multiprogrammed run.

    ``cycles`` is the *global* cycle count (until the last thread
    finished); ``stats`` is the per-thread statistics merged with
    :meth:`repro.stats.SimStats.merge`, so its ``cycles`` field is the
    *sum* of thread cycles, as for any merged statistics.
    """

    spec: MultiProgSpec
    threads: Tuple[ThreadResult, ...]
    cycles: int
    stats: SimStats

    @property
    def name(self) -> str:
        return self.spec.name

    @property
    def committed(self) -> int:
        return sum(t.committed for t in self.threads)

    @property
    def throughput_ipc(self) -> float:
        """Total committed instructions per global cycle."""
        if self.cycles == 0:
            return 0.0
        return self.committed / self.cycles

    @property
    def harmonic_mean_ipc(self) -> float:
        """Harmonic mean of per-thread IPCs (the fairness-leaning mean)."""
        if not self.threads or any(t.ipc == 0 for t in self.threads):
            return 0.0
        return len(self.threads) / sum(1.0 / t.ipc for t in self.threads)

    @property
    def arb_grants(self) -> int:
        return self.stats.arb_grants

    @property
    def arb_reclaims(self) -> int:
        return self.stats.arb_reclaims

    def weighted_speedup(self, solo_ipcs: Sequence[float]) -> float:
        """Mean of per-thread ``shared_ipc / solo_ipc`` ratios.

        ``solo_ipcs`` are the threads' IPCs when each runs alone on the
        same fabric with all clusters (supplied by the caller — e.g. the
        ``fig_multiprog`` exhibit measures them in the same sweep batch).
        """
        if len(solo_ipcs) != len(self.threads):
            raise ValueError(
                f"need one solo IPC per thread: got {len(solo_ipcs)} for "
                f"{len(self.threads)} threads"
            )
        ratios = []
        for thread, solo in zip(self.threads, solo_ipcs):
            if solo <= 0:
                raise ValueError(f"solo IPC must be positive, got {solo!r}")
            ratios.append(thread.ipc / solo)
        return sum(ratios) / len(ratios)
