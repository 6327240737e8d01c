"""Parallel sweep engine with content-hashed result caching.

Every paper exhibit is a matrix of *independent* single-configuration
simulations, which makes the whole reproduction embarrassingly parallel.
This module supplies the machinery the exhibits (and the benchmark
harness) fan out on:

* :class:`RunSpec` / :class:`ControllerSpec` — fully declarative, picklable
  descriptions of one run.  Workers rebuild the trace and the controller
  from the spec, so nothing stateful ever crosses a process boundary and a
  parallel sweep is bit-identical to the serial loop it replaced.
* :class:`ResultCache` — a content-addressed on-disk cache keyed by a
  stable hash of the trace-generation parameters, the
  :class:`~repro.config.ProcessorConfig`, the controller spec, and a digest
  of the simulator's own source tree (so editing the code invalidates
  everything automatically).
* :class:`SweepConfig` — one validated dataclass holding every runner
  knob (backend, parallelism, cache, timeout/retry, journal, tracing).
* :class:`SweepRunner` — runs specs in the calling process (``serial``)
  or across a local process pool (``process-pool``) through one loop,
  with per-run timeout and retry, records structured failures instead of
  crashing the sweep, and exposes progress/latency/utilization metrics.

Determinism is the design constraint: both backends must produce
the same :class:`~repro.stats.SimStats` as ``SweepConfig(jobs=1)`` and as
the plain ``run_trace`` loop, for the same seeds.

Fault tolerance is the second design constraint.  A sweep survives —
always with a structured record, never an unhandled exception — all of:

* a worker hard-crash (``BrokenProcessPool``): the pool is respawned and
  the in-flight specs re-queued; a spec that repeatedly kills workers is
  *quarantined* with ``status="poisoned"`` rather than retried forever
  (suspects are probed one-at-a-time after a crash, so an innocent spec
  that happened to share the pool with a crasher is never blamed);
* SIGINT/SIGTERM: in-flight runs drain, finished results are flushed to
  the journal, then :class:`~repro.errors.SweepInterrupted` carries the
  partial records out;
* a corrupted or bit-rotten cache entry: detected by checksum *before*
  unpickling, evicted, recomputed;
* a killed sweep: pass ``journal=``/``resume=True`` (CLI ``--resume``) and
  completed work is skipped on the next attempt — the resumed exhibit is
  bit-identical to an uninterrupted run;
* a run that outlives its ``timeout``: it checks a wall-clock deadline
  between cycle-bounded chunks and ends as a ``"timeout"`` record, on
  any thread.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
import os
import pathlib
import pickle
import signal
import tempfile
import threading
import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, BrokenExecutor, Executor, Future, wait
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from .._version import __version__
from ..config import ProcessorConfig, env_int, env_text
from ..errors import (
    ConfigError,
    RunTimeout,
    SimulationError,
    SweepError,
    SweepInterrupted,
)
from ..core import (
    DistantILPController,
    ExploreConfig,
    FineGrainConfig,
    FineGrainController,
    IntervalExploreController,
    NoExploreConfig,
    StaticController,
    SubroutineController,
)
from ..multiprog import MultiProgResult, MultiProgSpec, run_multiprog
from ..multiprog.scheduler import fabric_config, thread_seed
from ..resilience import FaultSchedule
from ..stats import IntervalWindow
from ..workloads.generator import generate_trace
from ..workloads.profiles import get_profile
from .journal import SweepJournal
from .runner import DEFAULT_WARMUP, RunResult, run_trace

#: environment knob: cache directory (default ``~/.cache/repro``)
CACHE_DIR_ENV = "REPRO_CACHE_DIR"
#: environment knob: default worker count for CLI and exhibit sweeps
JOBS_ENV = "REPRO_JOBS"

#: bump when the cached payload layout changes
#: (v2: payload carries a SHA-256 checksum of the pickled record, verified
#: before unpickling, so bit-rot and truncation are detected up front)
CACHE_SCHEMA_VERSION = 2


# ----------------------------------------------------------------------
# declarative run descriptions


@dataclass(frozen=True)
class ControllerSpec:
    """A picklable recipe for a reconfiguration controller.

    Controllers are stateful objects, so the sweep ships this declarative
    description instead and every worker builds a fresh instance — the same
    reason :mod:`repro.experiments.figures` used factory callables before.

    ``kind`` is one of ``none``, ``static``, ``explore``, ``no-explore``,
    ``finegrain``, ``subroutine``; ``algo`` carries the (frozen, hashable)
    algorithm-constant dataclass where one applies.
    """

    kind: str = "none"
    clusters: Optional[int] = None
    #: the closed union of algorithm-constant dataclasses (all frozen, all
    #: repr-stable), so the spec pickles by value and its repr is a
    #: deterministic part of the cache key
    algo: Optional[
        Union[ExploreConfig, NoExploreConfig, FineGrainConfig]
    ] = None

    def __post_init__(self) -> None:
        if self.kind not in _CONTROLLER_BUILDERS:
            raise ValueError(
                f"unknown controller kind {self.kind!r}; "
                f"choose from {sorted(_CONTROLLER_BUILDERS)}"
            )
        if self.kind == "static" and not self.clusters:
            raise ValueError("static controller spec needs a cluster count")

    # -- convenience constructors ---------------------------------------
    @classmethod
    def none(cls) -> "ControllerSpec":
        return cls("none")

    @classmethod
    def static(cls, clusters: int) -> "ControllerSpec":
        return cls("static", clusters=clusters)

    @classmethod
    def explore(cls, algo: Optional[ExploreConfig] = None) -> "ControllerSpec":
        return cls("explore", algo=algo or ExploreConfig.scaled())

    @classmethod
    def no_explore(cls, algo: Optional[NoExploreConfig] = None) -> "ControllerSpec":
        return cls("no-explore", algo=algo or NoExploreConfig.scaled())

    @classmethod
    def finegrain(cls, algo: Optional[FineGrainConfig] = None) -> "ControllerSpec":
        return cls("finegrain", algo=algo or FineGrainConfig())

    @classmethod
    def subroutine(cls, algo: Optional[FineGrainConfig] = None) -> "ControllerSpec":
        return cls("subroutine", algo=algo)

    @classmethod
    def parse(cls, policy: Union[str, "ControllerSpec"], clusters: int = 16) -> "ControllerSpec":
        """The spec a policy name stands for, with default constants.

        The names are the facade's ``reconfig_policy`` vocabulary:
        ``none``, ``static-<n>``, ``static`` (``clusters`` of them),
        ``explore``, ``no-explore``, ``finegrain`` and ``subroutine``.  A
        spec passes through unchanged.
        """
        if isinstance(policy, cls):
            return policy
        if not isinstance(policy, str):
            raise ConfigError(
                f"reconfig_policy must be a string or ControllerSpec, "
                f"got {type(policy).__name__}"
            )
        if policy == "":
            return cls.none()
        if policy.startswith("static-"):
            count = policy[len("static-"):]
            if not count.isdecimal() or int(count) < 1:
                raise ConfigError(
                    f"reconfig_policy {policy!r}: static-<n> needs a "
                    "positive cluster count"
                )
            return cls.static(int(count))
        if policy == "static":
            return cls.static(clusters)
        if policy not in _POLICY_SPECS:
            raise ConfigError(
                f"unknown reconfig_policy {policy!r}; choose from "
                f"{tuple(_POLICY_SPECS) + ('static-<n>',)}"
            )
        return _POLICY_SPECS[policy]()

    def build(self):
        """A fresh controller instance (or ``None`` for ``kind='none'``)."""
        return _CONTROLLER_BUILDERS[self.kind](self)


_CONTROLLER_BUILDERS: Dict[str, Callable[[ControllerSpec], object]] = {
    "none": lambda spec: None,
    "static": lambda spec: StaticController(spec.clusters),
    "explore": lambda spec: IntervalExploreController(spec.algo),
    "no-explore": lambda spec: DistantILPController(spec.algo),
    "finegrain": lambda spec: FineGrainController(spec.algo),
    "subroutine": lambda spec: SubroutineController(spec.algo),
}


#: policy name -> its spec with default constants (see ControllerSpec.parse)
_POLICY_SPECS: Dict[str, Callable[[], ControllerSpec]] = {
    "none": ControllerSpec.none,
    "explore": ControllerSpec.explore,
    "no-explore": ControllerSpec.no_explore,
    "finegrain": ControllerSpec.finegrain,
    "subroutine": ControllerSpec.subroutine,
}


def _build_steering(spec: Tuple) -> Callable:
    """Steering-override factory from a declarative ``("mod-n", 3)`` /
    ``("first-fit",)`` tuple (see :func:`figures.steering_ablation`)."""
    from ..clusters.steering import FirstFitSteering, ModNSteering

    kind = spec[0]
    if kind == "mod-n":
        n = spec[1] if len(spec) > 1 else 3
        return lambda clusters: ModNSteering(clusters, n=n)
    if kind == "first-fit":
        return lambda clusters: FirstFitSteering(clusters)
    raise ValueError(f"unknown steering spec {spec!r}")


@dataclass(frozen=True)
class RunSpec:
    """Everything needed to reproduce one simulation run, by value.

    The trace is *not* shipped to workers — they regenerate it from
    ``(profile, trace_length, seed)``, which is deterministic, so a spec
    is a few hundred bytes regardless of trace length.

    ``label`` names the scheme for reporting and is deliberately excluded
    from the cache key: two exhibits that run the same configuration under
    different labels share one cache entry.
    """

    profile: str
    trace_length: int
    seed: int = 7
    config: ProcessorConfig = field(default_factory=ProcessorConfig)
    controller: ControllerSpec = field(default_factory=ControllerSpec)
    warmup: int = DEFAULT_WARMUP
    label: str = ""
    #: optional steering override, e.g. ``("mod-n", 3)`` or ``("first-fit",)``
    steering: Optional[Tuple] = None
    #: when set, run :func:`repro.core.instability.record_intervals` at this
    #: granularity instead of a measured run (the Table 4 recording mode)
    record_granularity: Optional[int] = None
    #: commit-bounded instruction limit (None = whole trace); the facade
    #: vocabulary's ``max_instructions``, counted from the start of the
    #: trace, warmup included
    max_instructions: Optional[int] = None
    #: when set, the worker runs the multiprogrammed co-scheduler instead
    #: of a single-thread simulation; build such specs with
    #: :func:`multiprog_run_spec` so the redundant fields stay consistent
    multiprog: Optional[MultiProgSpec] = None
    #: architectural fault schedule applied to the run; part of the cache
    #: key — a faulted run is a different machine, never interchangeable
    #: with the healthy one
    faults: Optional[FaultSchedule] = None

    def cache_key(self) -> str:
        """Stable content hash of the run's inputs plus the code version."""
        payload = "|".join(
            (
                f"schema={CACHE_SCHEMA_VERSION}",
                f"version={__version__}",
                f"code={_code_digest()}",
                f"profile={self.profile}",
                f"length={self.trace_length}",
                f"seed={self.seed}",
                f"warmup={self.warmup}",
                f"config={self.config!r}",
                f"controller={self.controller!r}",
                f"steering={self.steering!r}",
                f"record={self.record_granularity!r}",
                f"max_instructions={self.max_instructions!r}",
                f"multiprog={self.multiprog!r}",
                f"faults={self.faults!r}",
            )
        )
        return hashlib.sha256(payload.encode()).hexdigest()


#: fields that deliberately do NOT flow into :meth:`RunSpec.cache_key`.
#: ``tests/experiments/test_sweep.py::TestCacheKey`` changes every other
#: RunSpec field and checks that the key moves, and checks that this list
#: names every SweepConfig field: adding a field to either forces a
#: choice — thread it into the key, or declare it non-semantic here.
CACHE_KEY_EXEMPT: Dict[str, Tuple[str, ...]] = {
    # reporting name only: two exhibits running the same configuration
    # under different labels share one cache entry (see RunSpec docstring)
    "RunSpec": ("label",),
    # execution policy, not simulation semantics: both backends produce
    # bit-identical records (the conformance suite proves it), so none of
    # the runner knobs may ever influence a cached result
    "SweepConfig": (
        "backend", "jobs", "cache_dir", "use_cache",
        "timeout", "retries", "journal", "resume", "trace_dir",
    ),
}

_CODE_DIGEST: Optional[str] = None


def _code_digest() -> str:
    """Digest of the ``repro`` package's source files.

    Any edit to the simulator invalidates every cache entry — the paper
    numbers must always come from the code in the tree, never from a stale
    cache.  Computed once per process (~1 MB of source).
    """
    global _CODE_DIGEST
    if _CODE_DIGEST is None:
        package_root = pathlib.Path(__file__).resolve().parent.parent
        digest = hashlib.sha256()
        for path in sorted(package_root.rglob("*.py")):
            digest.update(str(path.relative_to(package_root)).encode())
            digest.update(path.read_bytes())
        _CODE_DIGEST = digest.hexdigest()[:16]
    return _CODE_DIGEST


@dataclass
class RunRecord:
    """Outcome of one sweep entry — success or structured failure.

    ``status="poisoned"`` marks a spec quarantined after repeatedly
    hard-crashing worker processes; it is final and never retried.
    """

    spec: RunSpec
    status: str  # "ok" | "failed" | "timeout" | "poisoned"
    result: Optional[RunResult] = None
    #: interval recording (``record_granularity`` mode) instead of a result
    records: Optional[List[IntervalWindow]] = None
    #: per-thread detail of a multiprogrammed run (``result`` then carries
    #: the aggregate: throughput IPC over global cycles, merged stats)
    multiprog_result: Optional[MultiProgResult] = None
    error: str = ""
    attempts: int = 1
    duration: float = 0.0
    from_cache: bool = False
    #: satisfied from a checkpoint journal during a resumed sweep
    from_journal: bool = False

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    def relabelled_for(self, spec: RunSpec) -> "RunRecord":
        """A copy of this record carrying ``spec``'s label and identity.

        Cache and journal hits may have been stored by another exhibit
        under a different label; the *copy* keeps the stored record (and
        any other reader of the same entry) unmutated.
        """
        result = self.result
        if result is not None:
            result = dataclasses.replace(result, label=spec.label)
        return dataclasses.replace(self, spec=spec, result=result)


# ----------------------------------------------------------------------
# worker side


#: the traces of the spec this process runs now, by :func:`_trace_keys`
#: key.  Each spec keeps only its own traces, :meth:`SweepRunner.run`
#: groups specs that share a trace so it is built once, and empties the
#: memo before returning.
_TRACE_MEMO: Dict[Tuple[str, int, int], object] = {}


def _trace_keys(spec: RunSpec) -> List[Tuple[str, int, int]]:
    """The ``(profile, trace_length, seed)`` of every trace ``spec`` runs:
    one for a single-thread spec, one per thread of a multiprog spec."""
    mp_spec = spec.multiprog
    if mp_spec is None:
        return [(spec.profile, spec.trace_length, spec.seed)]
    return [
        (workload, mp_spec.trace_length, thread_seed(mp_spec.seed, i))
        for i, workload in enumerate(mp_spec.workloads)
    ]


def _traces_for(spec: RunSpec) -> list:
    """The traces ``spec`` runs; the memo then holds exactly these."""
    keys = _trace_keys(spec)
    kept = {key: _TRACE_MEMO.get(key) for key in keys}
    # drop the previous spec's traces before building this one's
    _TRACE_MEMO.clear()
    for key, trace in kept.items():
        if trace is None:
            profile, length, seed = key
            trace = generate_trace(get_profile(profile), length, seed)
        _TRACE_MEMO[key] = trace
    return [_TRACE_MEMO[key] for key in keys]


def multiprog_run_spec(spec: MultiProgSpec) -> RunSpec:
    """Wrap a :class:`MultiProgSpec` as a sweep-engine :class:`RunSpec`.

    The mirrored scalar fields (profile/length/seed/config) keep cache
    keys, validation bounds, and reporting working unchanged; the worker
    dispatches on ``multiprog`` and ignores them otherwise.
    """
    return RunSpec(
        profile=spec.name,
        trace_length=spec.trace_length,
        seed=spec.seed,
        config=fabric_config(spec),
        warmup=0,
        label=spec.resolved_label(),
        multiprog=spec,
    )


def _run_multiprog_spec(spec: RunSpec, deadline: Optional[float]) -> RunRecord:
    """Worker-side execution of a multiprogrammed spec."""
    start = time.perf_counter()
    mp_spec = spec.multiprog
    mp = run_multiprog(mp_spec, traces=_traces_for(spec), deadline=deadline)
    stats = mp.stats
    # aggregate view: throughput over *global* cycles; "reconfigurations"
    # counts arbiter actions, the multiprog analogue of cluster changes
    result = RunResult(
        name=mp.name,
        label=spec.label,
        ipc=mp.throughput_ipc,
        committed=mp.committed,
        cycles=mp.cycles,
        mispredict_interval=stats.mispredict_interval,
        avg_active_clusters=(
            stats.owned_cluster_cycles / mp.cycles if mp.cycles else 0.0
        ),
        reconfigurations=stats.arb_grants + stats.arb_reclaims,
        stats=stats,
    )
    return RunRecord(
        spec=spec,
        status="ok",
        result=result,
        multiprog_result=mp,
        duration=time.perf_counter() - start,
    )


def _run_spec(spec: RunSpec, deadline: Optional[float]) -> RunRecord:
    """Execute one spec (no error handling — see :func:`execute_spec`)."""
    if spec.multiprog is not None:
        return _run_multiprog_spec(spec, deadline)
    start = time.perf_counter()
    [trace] = _traces_for(spec)

    if spec.record_granularity is not None:
        from ..core.instability import record_intervals

        records = record_intervals(
            trace, spec.config, spec.record_granularity, deadline=deadline
        )
        return RunRecord(
            spec=spec,
            status="ok",
            records=records,
            duration=time.perf_counter() - start,
        )

    steering = _build_steering(spec.steering) if spec.steering else None
    result = run_trace(
        trace,
        spec.config,
        spec.controller.build(),
        warmup=spec.warmup,
        label=spec.label,
        steering=steering,
        max_instructions=spec.max_instructions,
        fault_schedule=spec.faults,
        deadline=deadline,
    )
    return RunRecord(
        spec=spec,
        status="ok",
        result=result,
        duration=time.perf_counter() - start,
    )


def _validate_record(record: RunRecord) -> None:
    """Sweep-level sanity gate on a finished result.

    A simulation that *completes* but reports NaN or impossible numbers is
    more dangerous than one that crashes — it silently poisons an exhibit.
    Raises :class:`SimulationError` (becoming a structured failure).
    """
    result = record.result
    if result is None:
        return
    width = record.spec.config.front_end.commit_width
    if record.spec.multiprog is not None:
        # aggregate throughput: every thread commits through its own ROB
        width *= len(record.spec.multiprog.workloads)
    if not math.isfinite(result.ipc) or not 0 <= result.ipc <= width:
        raise SimulationError(
            f"result IPC {result.ipc!r} outside sane bounds [0, {width}] "
            f"for {record.spec.profile}"
        )
    if result.committed < 0 or result.cycles <= 0:
        raise SimulationError(
            f"impossible result: {result.committed} committed in "
            f"{result.cycles} cycles for {record.spec.profile}"
        )


def execute_spec(spec: RunSpec, timeout: Optional[float] = None) -> RunRecord:
    """Run one spec, converting any failure into a structured record.

    ``timeout`` becomes a :func:`time.monotonic` deadline that the
    simulation checks between cycle-bounded chunks (a multiprog run:
    between epoch segments), so a run that passes it stops at the next
    check, on any thread.  Trace generation counts against the deadline
    but is not cut short.  With no timeout no clock is read.
    """
    start = time.perf_counter()
    deadline = None if timeout is None else time.monotonic() + timeout
    try:
        record = _run_spec(spec, deadline)
        _validate_record(record)
        return record
    except RunTimeout:
        return RunRecord(
            spec=spec,
            status="timeout",
            error=f"run exceeded {timeout:g}s timeout",
            duration=time.perf_counter() - start,
        )
    except Exception as exc:
        return RunRecord(
            spec=spec,
            status="failed",
            error=f"{type(exc).__name__}: {exc}",
            duration=time.perf_counter() - start,
        )


# ----------------------------------------------------------------------
# on-disk result cache


class ResultCache:
    """Content-addressed pickle-per-entry cache under one directory.

    Entries are written atomically (temp file + rename) so concurrent
    sweeps sharing a cache directory cannot observe torn writes.  Each
    entry stores the pickled record alongside its SHA-256, verified
    *before* unpickling — a bit-rotten or truncated payload is evicted up
    front, never fed to the unpickler.  A corrupt or mismatched entry is
    evicted and recomputed, never fatal.
    """

    def __init__(self, directory: Optional[os.PathLike] = None) -> None:
        self.directory = pathlib.Path(directory or default_cache_dir())

    def _path(self, key: str) -> pathlib.Path:
        return self.directory / f"{key}.pkl"

    def get(self, spec: RunSpec) -> Optional[RunRecord]:
        key = spec.cache_key()
        path = self._path(key)
        try:
            with open(path, "rb") as fh:
                payload = pickle.load(fh)
            if payload["schema"] != CACHE_SCHEMA_VERSION or payload["key"] != key:
                raise ValueError("cache entry does not match its key")
            record_bytes = payload["record"]
            if hashlib.sha256(record_bytes).hexdigest() != payload["sha256"]:
                raise ValueError("cache entry failed its checksum (bit rot?)")
            record = pickle.loads(record_bytes)
            if not isinstance(record, RunRecord) or not record.ok:
                raise ValueError("cache entry is not a successful RunRecord")
        except FileNotFoundError:
            return None
        except Exception:
            self.evict(key)
            return None
        # the stored spec may carry another exhibit's label; report ours on
        # a copy, so two exhibits sharing one entry cannot clobber each
        # other's labels
        record = record.relabelled_for(spec)
        record.from_cache = True
        return record

    def put(self, record: RunRecord) -> None:
        if not record.ok:
            return
        key = record.spec.cache_key()
        self.directory.mkdir(parents=True, exist_ok=True)
        record_bytes = pickle.dumps(record)
        payload = {
            "schema": CACHE_SCHEMA_VERSION,
            "key": key,
            "sha256": hashlib.sha256(record_bytes).hexdigest(),
            "record": record_bytes,
        }
        fd, tmp = tempfile.mkstemp(dir=self.directory, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as fh:
                pickle.dump(payload, fh)
            os.replace(tmp, self._path(key))
        except Exception:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    def evict(self, key: str) -> None:
        try:
            os.unlink(self._path(key))
        except OSError:
            pass


def default_cache_dir() -> pathlib.Path:
    env = env_text(CACHE_DIR_ENV)
    if env:
        return pathlib.Path(env)
    return pathlib.Path.home() / ".cache" / "repro"


# ----------------------------------------------------------------------
# metrics


@dataclass
class SweepMetrics:
    """Progress and performance counters for one :class:`SweepRunner`."""

    #: processes that ran specs at once: 1 for a serial sweep, the pool's
    #: size otherwise (the denominator of :attr:`worker_utilization`)
    jobs: int = 1
    submitted: int = 0
    completed: int = 0
    failed: int = 0
    timeouts: int = 0
    retries: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    #: specs satisfied from the checkpoint journal on a resumed sweep
    journal_skips: int = 0
    #: worker-pool respawns after a ``BrokenProcessPool``
    pool_respawns: int = 0
    #: specs quarantined after repeatedly crashing worker processes
    poisoned: int = 0
    #: journal append failures tolerated (read-only journal dir etc.)
    journal_errors: int = 0
    #: result-cache write failures tolerated (read-only cache dir etc.)
    cache_errors: int = 0
    wall_seconds: float = 0.0
    busy_seconds: float = 0.0
    latencies: List[float] = field(default_factory=list)
    #: one entry per completed spec (input order of completion): profile,
    #: label, status, attempts, cache/journal provenance, and wall-clock
    #: positions within the sweep (``end_seconds`` since sweep start,
    #: ``run_seconds`` executing, ``queue_seconds`` waiting for a worker)
    spec_timings: List[Dict] = field(default_factory=list)
    #: backend telemetry: kind, worker count, respawn count, and
    #: wall-clock lifecycle events (start/respawn/close)
    backend: Dict[str, object] = field(default_factory=dict)

    def latency_percentile(self, pct: float) -> float:
        if not self.latencies:
            return 0.0
        ordered = sorted(self.latencies)
        idx = min(len(ordered) - 1, int(round((pct / 100.0) * (len(ordered) - 1))))
        return ordered[idx]

    @property
    def p50_seconds(self) -> float:
        return self.latency_percentile(50)

    @property
    def p95_seconds(self) -> float:
        return self.latency_percentile(95)

    @property
    def worker_utilization(self) -> float:
        """Fraction of worker-seconds spent simulating (1.0 = saturated)."""
        if self.wall_seconds <= 0 or self.jobs <= 0:
            return 0.0
        return min(1.0, self.busy_seconds / (self.wall_seconds * self.jobs))

    @property
    def hit_rate(self) -> float:
        total = self.cache_hits + self.cache_misses
        return self.cache_hits / total if total else 0.0

    def snapshot(self) -> Dict[str, object]:
        """JSON-serializable summary (CI uploads this as an artifact)."""
        return {
            "jobs": self.jobs,
            "submitted": self.submitted,
            "completed": self.completed,
            "failed": self.failed,
            "timeouts": self.timeouts,
            "retries": self.retries,
            "journal_skips": self.journal_skips,
            "journal_errors": self.journal_errors,
            "pool_respawns": self.pool_respawns,
            "poisoned": self.poisoned,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "cache_hit_rate": round(self.hit_rate, 4),
            "cache_errors": self.cache_errors,
            "wall_seconds": round(self.wall_seconds, 4),
            "busy_seconds": round(self.busy_seconds, 4),
            "worker_utilization": round(self.worker_utilization, 4),
            "p50_run_seconds": round(self.p50_seconds, 4),
            "p95_run_seconds": round(self.p95_seconds, 4),
            "specs": list(self.spec_timings),
            "backend": dict(self.backend),
        }


# ----------------------------------------------------------------------
# the runner


def default_jobs() -> int:
    """``REPRO_JOBS`` if set, else ``cpu_count - 1`` (min 1)."""
    jobs = env_int(JOBS_ENV)
    if jobs is not None:
        return max(1, jobs)
    return max(1, (os.cpu_count() or 2) - 1)


#: the ``SweepConfig.backend`` spellings; ``"auto"`` follows ``jobs``
BACKENDS = ("auto", "serial", "process-pool")

#: solo worker crashes after which a spec is quarantined as ``"poisoned"``
POISON_THRESHOLD = 3


@dataclass(frozen=True)
class SweepConfig:
    """Every :class:`SweepRunner` knob, validated, in one place.

    Build one and pass it as the runner's single positional argument
    (the facade :func:`repro.api.sweep` and the CLI both do).

    ``backend`` selects where specs run: ``"serial"`` in the calling
    process, ``"process-pool"`` across ``jobs`` worker processes, and
    ``"auto"`` (default) serial for ``jobs <= 1`` and the pool otherwise.
    Both produce bit-identical records for identical specs.
    """

    backend: str = "auto"
    jobs: Optional[int] = None
    cache_dir: Optional[os.PathLike] = None
    use_cache: bool = True
    timeout: Optional[float] = None
    retries: int = 1
    journal: Optional[object] = None
    resume: bool = False
    trace_dir: Optional[os.PathLike] = None

    def __post_init__(self) -> None:
        if self.backend not in BACKENDS:
            raise ConfigError(
                f"unknown backend {self.backend!r}; choose from {BACKENDS}"
            )
        if self.jobs is not None and int(self.jobs) < 0:
            raise ConfigError(f"jobs must be >= 0, got {self.jobs!r}")
        if self.timeout is not None and not float(self.timeout) > 0:
            raise ConfigError(f"timeout must be positive, got {self.timeout!r}")
        if int(self.retries) < 0:
            raise ConfigError(f"retries must be >= 0, got {self.retries!r}")

    def resolved_jobs(self) -> int:
        """Worker count after defaults (``REPRO_JOBS``/CPU count)."""
        return default_jobs() if self.jobs is None else max(1, int(self.jobs))

    def resolved_backend(self) -> str:
        """``"serial"`` or ``"process-pool"``, after ``"auto"`` resolution."""
        if self.backend != "auto":
            return self.backend
        return "serial" if self.resolved_jobs() <= 1 else "process-pool"


class _InlineExecutor(Executor):
    """The ``serial`` backend: runs each submission in the calling thread
    as it is submitted, behind the process pool's interface."""

    def submit(self, fn, /, *args, **kwargs) -> Future:
        future: Future = Future()
        future.set_result(fn(*args, **kwargs))
        return future


class SweepRunner:
    """Run independent :class:`RunSpec` runs serially or on a process pool.

    The runner owns caching, journal/resume, retries, crash counting and
    quarantine, signal draining and metrics, written once for both
    backends: one loop submits specs to a :mod:`concurrent.futures`
    executor, a :class:`~concurrent.futures.ProcessPoolExecutor` or an
    in-process one.  Both yield bit-identical records.

    Construct with a single :class:`SweepConfig`::

        runner = SweepRunner(SweepConfig(jobs=4, use_cache=False))

    ``progress`` (a callable receiving a dict per completed run) stays a
    direct keyword — it is not part of the sweep's declarative identity.

    While ``run()`` executes on the main thread, SIGINT/SIGTERM request a
    *drain*: no new work starts, in-flight runs finish and are journaled,
    then :class:`~repro.errors.SweepInterrupted` is raised carrying the
    completed records.  A second signal aborts immediately.
    """

    def __init__(
        self,
        config: Optional[SweepConfig] = None,
        *,
        progress: Optional[Callable[[Dict], None]] = None,
    ) -> None:
        if config is not None and not isinstance(config, SweepConfig):
            raise TypeError(
                f"SweepRunner takes a SweepConfig, got "
                f"{type(config).__name__}: SweepRunner(SweepConfig(...))"
            )
        self.config = config or SweepConfig()
        self.jobs = self.config.resolved_jobs()
        self.use_cache = self.config.use_cache
        self.cache = ResultCache(self.config.cache_dir) if self.use_cache else None
        self.timeout = self.config.timeout
        self.retries = int(self.config.retries)
        journal = self.config.journal
        if journal is not None and not isinstance(journal, SweepJournal):
            journal = SweepJournal(journal)
        self.journal: Optional[SweepJournal] = journal
        self.resume = self.config.resume
        self.progress = progress
        self.trace_dir = self.config.trace_dir
        self.metrics = SweepMetrics()
        self._drain_requested = False
        self._journaled_keys: set = set()
        # wall-clock bookkeeping for per-spec timings (relative seconds)
        self._clock0 = time.perf_counter()

    # ------------------------------------------------------------------
    def run(self, specs: Sequence[RunSpec]) -> List[RunRecord]:
        """Execute every spec; results come back in input order.

        Specs that share a trace run back to back (a stable sort by the
        first appearance of each spec's trace keys), so each trace is
        built once per worker and only the running spec's traces are
        held; the trace memo is emptied before returning.

        Failures are *returned*, not raised — callers that need a complete
        matrix should check :attr:`RunRecord.ok` (or use
        :func:`require_ok`).
        """
        specs = list(specs)
        start = time.perf_counter()
        self.metrics.submitted += len(specs)
        records: List[Optional[RunRecord]] = [None] * len(specs)
        self._drain_requested = False

        journaled: Dict[str, RunRecord] = {}
        if self.journal is not None and self.resume:
            journaled = self.journal.load_ok()
            self._journaled_keys.update(journaled)

        pending: List[Tuple[int, RunSpec]] = []
        for i, spec in enumerate(specs):
            done = journaled.get(spec.cache_key())
            if done is not None:
                done = done.relabelled_for(spec)
                done.from_journal = True
                records[i] = done
                self.metrics.journal_skips += 1
                self._note_done(done)
                continue
            hit = self.cache.get(spec) if self.cache else None
            if hit is not None:
                records[i] = hit
                self.metrics.cache_hits += 1
                self._journal_append(hit)
                self._note_done(hit)
            else:
                if self.cache:
                    self.metrics.cache_misses += 1
                pending.append((i, spec))

        first: Dict[Tuple[str, int, int], int] = {}
        group = {
            index: min(first.setdefault(key, len(first)) for key in _trace_keys(spec))
            for index, spec in pending
        }
        pending.sort(key=lambda item: group[item[0]])
        try:
            with self._signal_drain():
                if pending:
                    self._execute(pending, records)
        finally:
            _TRACE_MEMO.clear()

        self.metrics.wall_seconds += time.perf_counter() - start
        self._export_trace()
        done_records = [r for r in records if r is not None]
        if self._drain_requested:
            raise SweepInterrupted(
                f"sweep interrupted: {len(done_records)} of {len(specs)} runs "
                "completed and flushed"
                + (" to the journal" if self.journal is not None else ""),
                completed=done_records,
            )
        return done_records

    # ------------------------------------------------------------------
    # signal draining

    def _signal_drain(self):
        """Context manager installing drain-on-SIGINT/SIGTERM handlers.

        Only active on the main thread (signal handlers cannot be
        installed elsewhere); a no-op context otherwise.
        """
        runner = self

        class _Guard:
            def __enter__(self):
                self.previous = []
                if threading.current_thread() is not threading.main_thread():
                    return self
                for signum in (signal.SIGINT, signal.SIGTERM):
                    try:
                        self.previous.append(
                            (signum, signal.signal(signum, runner._on_signal))
                        )
                    except (ValueError, OSError):  # pragma: no cover
                        pass
                return self

            def __exit__(self, *exc):
                for signum, handler in self.previous:
                    signal.signal(signum, handler)
                return False

        return _Guard()

    def _on_signal(self, signum, frame) -> None:
        if self._drain_requested:
            # second signal: the user means it — abort without draining
            raise KeyboardInterrupt
        self._drain_requested = True

    # ------------------------------------------------------------------
    def _finish(self, index: int, record: RunRecord, attempts: int,
                records: List[Optional[RunRecord]],
                queue_seconds: float = 0.0) -> None:
        record.attempts = attempts
        records[index] = record
        if record.ok and self.cache:
            try:
                self.cache.put(record)
            except Exception:
                # a read-only cache dir degrades reruns, not the sweep
                self.metrics.cache_errors += 1
        self._journal_append(record)
        self._note_done(record, queue_seconds=queue_seconds)

    def _journal_append(self, record: RunRecord) -> None:
        if self.journal is None:
            return
        key = record.spec.cache_key()
        if key in self._journaled_keys and record.ok:
            return  # already durably recorded; avoid bloating the journal
        try:
            self.journal.append(record)
            if record.ok:
                self._journaled_keys.add(key)
        except Exception:
            # a read-only journal dir degrades resume, not the sweep
            self.metrics.journal_errors += 1

    def _note_done(
        self, record: RunRecord, queue_seconds: float = 0.0
    ) -> None:
        m = self.metrics
        m.completed += 1
        if record.status == "failed":
            m.failed += 1
        elif record.status == "timeout":
            m.timeouts += 1
        elif record.status == "poisoned":
            m.poisoned += 1
        if not record.from_cache and not record.from_journal:
            m.busy_seconds += record.duration
            m.latencies.append(record.duration)
        end = time.perf_counter() - self._clock0
        # queue time = time between backend submission and execution that
        # was not spent running (zero for serial/cache/journal completions)
        queue = max(0.0, queue_seconds)
        m.spec_timings.append(
            {
                "profile": record.spec.profile,
                "label": record.spec.label or record.spec.controller.kind,
                "status": record.status,
                "attempts": record.attempts,
                "from_cache": record.from_cache,
                "from_journal": record.from_journal,
                "run_seconds": round(record.duration, 6),
                "queue_seconds": round(queue, 6),
                "end_seconds": round(end, 6),
            }
        )
        if self.progress:
            self.progress(
                {
                    "profile": record.spec.profile,
                    "label": record.spec.label,
                    "status": record.status,
                    "from_cache": record.from_cache,
                    "duration": record.duration,
                    "completed": m.completed,
                    "total": m.submitted,
                }
            )

    def _export_trace(self) -> None:
        """Write ``sweep_metrics.json`` + ``sweep_trace.json`` to trace_dir.

        The trace holds one Chrome-trace span per *executed* run (cache and
        journal hits took no worker time), lane-packed by wall-clock overlap
        so Perfetto shows worker-pool utilization directly.
        """
        if self.trace_dir is None:
            return
        import json

        from ..observability.exporters import spans_chrome_trace

        directory = pathlib.Path(self.trace_dir)
        directory.mkdir(parents=True, exist_ok=True)
        with open(directory / "sweep_metrics.json", "w", encoding="utf-8") as fh:
            json.dump(self.metrics.snapshot(), fh, indent=2)
        spans = [
            {
                "name": f"{timing['profile']}/{timing['label']}",
                "start": max(0.0, timing["end_seconds"] - timing["run_seconds"]),
                "end": timing["end_seconds"],
                "args": {
                    "status": timing["status"],
                    "attempts": timing["attempts"],
                    "queue_seconds": timing["queue_seconds"],
                },
            }
            for timing in self.metrics.spec_timings
            if not timing["from_cache"] and not timing["from_journal"]
        ]
        trace = spans_chrome_trace(spans)
        # backend lifecycle (start, pool respawns, close) as Perfetto
        # instant events on a dedicated pseudo-thread
        for event in self.metrics.backend.get("events", ()):
            details = {k: v for k, v in event.items() if k not in ("event", "t")}
            trace["traceEvents"].append(
                {
                    "name": str(event.get("event", "backend")),
                    "ph": "i",
                    "ts": int(float(event.get("t", 0.0)) * 1e6),
                    "pid": 0,
                    "tid": 999,
                    "s": "p",
                    "args": details,
                }
            )
        with open(directory / "sweep_trace.json", "w", encoding="utf-8") as fh:
            json.dump(trace, fh)

    def _execute(self, pending, records) -> None:
        """Run ``pending`` specs, at most ``width`` at a time.

        One loop for both backends.  A pool that breaks (a worker died)
        fails every in-flight future, so the in-flight set is exactly the
        set of suspects: they re-run one at a time, and a spec that breaks
        the pool while running alone is the culprit.  Its crashes count
        toward quarantine at :data:`POISON_THRESHOLD`; an innocent that
        shared the pool with it is never blamed.  Failed records are
        retried up to ``retries`` times.  On a drain request queued work
        is dropped and in-flight work completes and is journaled.
        """
        kind = self.config.resolved_backend()
        width = 1 if kind == "serial" else min(self.jobs, len(pending))
        self.metrics.jobs = max(self.metrics.jobs, width)
        events: List[Dict[str, object]] = []
        respawns = 0

        def stamp(event: str, **details: object) -> None:
            t = round(time.perf_counter() - self._clock0, 6)
            events.append({"event": event, "t": t, **details})

        queue = deque(pending)
        probe: deque = deque()  # crash suspects, run alone
        running: Dict[Future, Tuple[int, RunSpec, float]] = {}
        attempts: Dict[int, int] = {}
        crashes: Dict[int, int] = {}
        executor: Optional[Executor] = None
        broken = False
        stamp("backend_start", jobs=width)
        try:
            while queue or probe or running:
                if self._drain_requested:
                    queue.clear()
                    probe.clear()
                    if not running:
                        break
                # top up: a suspect runs only once nothing else does
                while not broken:
                    if probe and not running:
                        source = probe
                    elif queue and not probe and len(running) < width:
                        source = queue
                    else:
                        break
                    index, spec = source.popleft()
                    if executor is None:
                        executor = self._executor(kind, width)
                    try:
                        future = executor.submit(execute_spec, spec, self.timeout)
                    except BrokenExecutor:
                        # the pool died before this spec ran: not a suspect
                        broken = True
                        source.appendleft((index, spec))
                        break
                    running[future] = (index, spec, time.perf_counter())
                alone = len(running) == 1
                done = wait(running, return_when=FIRST_COMPLETED).done if running else ()
                for future in done:
                    index, spec, submitted = running.pop(future)
                    try:
                        record = future.result()
                    except BrokenExecutor:
                        broken = True
                        if alone:  # it broke the pool by itself
                            crashes[index] = crashes.get(index, 0) + 1
                        if (
                            crashes.get(index, 0) < POISON_THRESHOLD
                            or self._drain_requested
                        ):
                            probe.append((index, spec))
                            continue
                        record = RunRecord(
                            spec=spec,
                            status="poisoned",
                            error=(
                                f"crashed the worker process {crashes[index]} "
                                "times; quarantined"
                            ),
                        )
                        self._finish(index, record,
                                     attempts.get(index, 0) + crashes[index], records)
                        continue
                    attempts[index] = attempts.get(index, 0) + 1
                    if (
                        not record.ok
                        and attempts[index] <= self.retries
                        and not self._drain_requested
                    ):
                        self.metrics.retries += 1
                        queue.append((index, spec))
                        continue
                    queue_seconds = time.perf_counter() - submitted - record.duration
                    self._finish(index, record, attempts[index], records,
                                 queue_seconds=queue_seconds)
                if broken:
                    # every spec still in flight is a suspect; respawn
                    probe.extend((i, s) for i, s, _ in running.values())
                    running.clear()
                    executor.shutdown(wait=False, cancel_futures=True)
                    executor = None
                    broken = False
                    respawns += 1
                    self.metrics.pool_respawns += 1
                    stamp("pool_respawn", respawns=respawns)
        finally:
            if executor is not None:
                executor.shutdown(wait=not broken, cancel_futures=True)
            stamp("backend_close")
            self.metrics.backend = {
                "kind": kind, "workers": width, "respawns": respawns,
                "events": events,
            }

    @staticmethod
    def _executor(kind: str, width: int) -> Executor:
        if kind == "serial":
            return _InlineExecutor()
        # imported here so that a serial sweep never loads multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        return ProcessPoolExecutor(max_workers=width)


def serial_runner() -> SweepRunner:
    """Every exhibit's default runner: in-process, no cache, no pool."""
    return SweepRunner(SweepConfig(backend="serial", use_cache=False))


def require_ok(records: Sequence[RunRecord]) -> List[RunRecord]:
    """Raise :class:`~repro.errors.SweepError` (listing every structured
    failure, with all records attached) if any record is not ok."""
    bad = [r for r in records if not r.ok]
    if bad:
        lines = [
            f"  {r.spec.profile}/{r.spec.label or r.spec.controller.kind}: "
            f"{r.status} after {r.attempts} attempt(s) — {r.error}"
            for r in bad
        ]
        raise SweepError(
            f"{len(bad)} of {len(records)} sweep runs failed:\n" + "\n".join(lines),
            records=records,
        )
    return list(records)
