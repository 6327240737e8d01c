"""One benchmark sample, run in a fresh interpreter by ``run.py``.

Usage (``PYTHONPATH=src``)::

    python benchmarks/e2e/child.py setup
    python benchmarks/e2e/child.py sample WORKLOAD SEED WORKDIR [--traced] [--limit N]

``setup`` times what a user's first sweep pays before any simulation:
``import repro.api``, ``SweepRunner`` construction and the first
``RunSpec.cache_key()`` (which digests every ``repro`` source file).

``sample`` does the same set-up, then runs one workload through
``repro.api.sweep`` on the serial backend against an empty result cache
and journal under ``WORKDIR``.  ``--traced`` adds a statistical sampler
(``SIGPROF``) that attributes host CPU time to ``repro`` subpackages, and
timing wrappers around the sweep's stage functions.

Either mode prints one JSON object on stdout.  Nothing here imports
``repro`` before the set-up clock starts.
"""

import time

_T0 = time.perf_counter()

import contextlib  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import pathlib  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import sys  # noqa: E402
from typing import Dict, List, Tuple  # noqa: E402

PROFILES = ("cjpeg", "crafty", "djpeg", "galgel", "gzip", "mgrid", "parser", "swim", "vpr")
#: short enough that one sample takes about 3 s and a 30 s run gets about
#: eight of them; contention on a shared host is bursty, and more samples
#: per spec steady the run more than longer traces do
TRACE_LENGTH = 4000
#: the exhibits' 6k/60k warmup ratio; the warmup is excluded from IPC but
#: still simulated, so it counts as host work
WARMUP = 400
MULTIPROG_MIXES = (("gzip", "swim"), ("vpr", "mgrid"), ("crafty", "galgel", "parser", "djpeg"))
#: per thread; still spans several 2000-cycle arbiter epochs
MULTIPROG_TRACE_LENGTH = 2000

#: SimStats fields covered by the per-spec output digest.  Listed rather
#: than reflected so that a counter added later (e.g. a CPI stack) does not
#: change the digest of an unchanged simulation.
DIGEST_FIELDS = (
    "cycles", "committed", "fetched", "dispatched", "issued", "squashed",
    "branches", "mispredicts", "memrefs", "loads", "stores",
    "l1_hits", "l1_misses", "l2_hits", "l2_misses", "bank_conflict_cycles",
    "register_transfers", "register_transfer_cycles", "memory_transfers",
    "memory_transfer_cycles", "store_broadcasts", "bank_predictions",
    "bank_mispredictions", "distant_commits", "reconfigurations",
    "cache_flushes", "flush_writebacks", "flush_stall_cycles",
    "cluster_cycle_product", "arb_grants", "arb_reclaims",
    "owned_cluster_cycles", "faults_injected", "cluster_kills",
    "links_severed", "links_degraded", "fu_faults", "degraded_cycles",
    "recovery_cycles",
)

#: per-layer count metric -> SimStats field, summed over a workload's specs
COUNT_FIELDS = {
    "pipeline.committed": "committed",
    "pipeline.cycles": "cycles",
    "pipeline.issued": "issued",
    "pipeline.squashed": "squashed",
    "pipeline.distant_commits": "distant_commits",
    "frontend.branches": "branches",
    "frontend.mispredicts": "mispredicts",
    "interconnect.register_transfers": "register_transfers",
    "interconnect.register_transfer_cycles": "register_transfer_cycles",
    "interconnect.memory_transfers": "memory_transfers",
    "interconnect.memory_transfer_cycles": "memory_transfer_cycles",
    "memory.memrefs": "memrefs",
    "memory.l1_misses": "l1_misses",
    "memory.l2_misses": "l2_misses",
    "memory.bank_conflict_cycles": "bank_conflict_cycles",
    "memory.store_broadcasts": "store_broadcasts",
    "memory.bank_mispredictions": "bank_mispredictions",
    "core.reconfigurations": "reconfigurations",
    "core.cache_flushes": "cache_flushes",
    "core.flush_stall_cycles": "flush_stall_cycles",
    "multiprog.arb_grants": "arb_grants",
    "multiprog.arb_reclaims": "arb_reclaims",
}
#: per-layer count metric -> SweepMetrics field
SWEEP_FIELDS = {
    "experiments.specs": "submitted",
    "experiments.cache_misses": "cache_misses",
    "experiments.failed": "failed",
    "experiments.retries": "retries",
}

#: ``repro`` subpackages that are layers of their own; other ``repro``
#: modules are ``misc`` and everything outside ``repro`` is ``python``
PACKAGE_LAYERS = (
    "workloads", "frontend", "clusters", "interconnect", "memory", "pipeline",
    "core", "multiprog", "batch", "experiments", "observability",
)
LAYERS = PACKAGE_LAYERS + ("misc", "python")

#: requested SIGPROF period in seconds of process CPU time; the kernel's
#: timer tick can make the delivered period coarser
SAMPLE_INTERVAL = 0.001


def layer_of(filename: str) -> str:
    """The layer a source file belongs to, from its path."""
    parts = pathlib.PurePath(filename).parts
    for i in range(len(parts) - 1, 0, -1):
        if parts[i - 1] == "src" and parts[i] == "repro":
            inner = parts[i + 1:]
            if len(inner) > 1 and inner[0] in PACKAGE_LAYERS:
                return inner[0]
            return "misc"
    return "python"


def workload_specs(workload: str, seed: int) -> List[object]:
    """The specs of one named workload, each with a unique label."""
    from repro.api import MultiProgSpec, SimSpec

    def single(policies, **kwargs):
        return [
            SimSpec(
                profile, seed=seed, trace_length=TRACE_LENGTH, warmup=WARMUP,
                reconfig_policy=policy, label=f"{profile}/{policy}", **kwargs,
            )
            for profile in PROFILES
            for policy in policies
        ]

    if workload == "static-ring":
        return single(("static-2", "static-4", "static-8", "static-16"))
    if workload == "dynamic-ring":
        return single(("explore", "no-explore", "finegrain", "subroutine"))
    if workload == "decentralized":
        return single(("static-4", "static-16", "explore"), topology="decentralized")
    if workload == "multiprog":
        return [
            MultiProgSpec(
                mix, trace_length=MULTIPROG_TRACE_LENGTH, seed=seed,
                topology=topology, arbiter=arbiter,
                label=f"{'+'.join(mix)}/{topology}/{arbiter}",
            )
            for mix in MULTIPROG_MIXES
            for topology in ("torus", "grid")
            for arbiter in ("static", "round-robin", "comm-aware")
        ]
    raise SystemExit(f"unknown workload {workload!r}")


def stats_digest(stats_list) -> str:
    """SHA-256 over the digested fields of one or more SimStats."""
    rows = [[getattr(stats, name) for name in DIGEST_FIELDS] for stats in stats_list]
    return hashlib.sha256(json.dumps(rows).encode()).hexdigest()


def set_up() -> float:
    """Import the facade, build a runner, compute a first cache key."""
    import repro.api  # noqa: F401
    from repro.experiments.sweep import RunSpec, SweepConfig, SweepRunner

    SweepRunner(SweepConfig(backend="serial", use_cache=False))
    RunSpec(profile="gzip", trace_length=TRACE_LENGTH).cache_key()
    return time.perf_counter() - _T0


class Sampler:
    """SIGPROF statistical profiler: leaf Python frame -> layer counts."""

    def __init__(self) -> None:
        self.counts: Dict[str, int] = dict.fromkeys(LAYERS, 0)
        self._layer_by_file: Dict[str, str] = {}

    def _on_signal(self, signum, frame) -> None:
        if frame is None:
            return
        filename = frame.f_code.co_filename
        layer = self._layer_by_file.get(filename)
        if layer is None:
            layer = self._layer_by_file[filename] = layer_of(filename)
        self.counts[layer] += 1

    def __enter__(self) -> "Sampler":
        self._previous = signal.signal(signal.SIGPROF, self._on_signal)
        signal.setitimer(signal.ITIMER_PROF, SAMPLE_INTERVAL, SAMPLE_INTERVAL)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0.0, 0.0)
        signal.signal(signal.SIGPROF, self._previous)


def install_stage_wrappers(stages: Dict[str, List[float]]) -> None:
    """Time the sweep's stage functions where their callers look them up."""
    from repro.experiments import journal, sweep
    from repro.multiprog import scheduler

    def wrap(owner, attr: str, stage: str) -> None:
        inner = getattr(owner, attr)
        totals = stages.setdefault(stage, [0.0, 0])

        def timed(*args, **kwargs):
            start = time.perf_counter()
            try:
                return inner(*args, **kwargs)
            finally:
                totals[0] += time.perf_counter() - start
                totals[1] += 1

        setattr(owner, attr, timed)

    wrap(sweep, "generate_trace", "generate_trace")
    wrap(scheduler, "generate_trace", "generate_trace")
    wrap(sweep, "run_trace", "run")
    wrap(sweep, "run_multiprog", "run")
    wrap(sweep.ResultCache, "get", "cache_get")
    wrap(sweep.ResultCache, "put", "cache_put")
    wrap(journal.SweepJournal, "append", "journal")
    wrap(sweep.RunSpec, "cache_key", "cache_key")


def spec_outcome(record) -> Dict[str, object]:
    """Label, status, output digest and size of one finished record."""
    spec = record.spec
    threads = len(spec.multiprog.workloads) if spec.multiprog is not None else 1
    out: Dict[str, object] = {
        "label": spec.label,
        "ok": record.ok,
        "duration": record.duration,
        "instructions": spec.trace_length * threads,
    }
    if record.ok:
        stats = record.result.stats
        per_thread: Tuple = ()
        if record.multiprog_result is not None:
            per_thread = tuple(t.stats for t in record.multiprog_result.threads)
        out.update(
            digest=stats_digest((stats,) + per_thread), committed=stats.committed
        )
    return out


def sample(workload: str, seed: int, workdir: pathlib.Path, traced: bool,
           limit: int) -> Dict[str, object]:
    setup_s = set_up()
    import repro.api

    specs = workload_specs(workload, seed)
    if limit:
        specs = specs[:limit]
    stages: Dict[str, List[float]] = {}
    if traced:
        install_stage_wrappers(stages)
    sampler = Sampler()
    done_at: List[float] = []
    cpu0 = time.process_time()
    start = time.perf_counter()
    with sampler if traced else contextlib.nullcontext():
        result = repro.api.sweep(
            specs, backend="serial", cache_dir=workdir / "cache",
            journal=workdir / "journal.jsonl",
            progress=lambda _: done_at.append(time.perf_counter()),
        )
    end = time.perf_counter()
    cpu_s = time.process_time() - cpu0
    # each spec's share of the sweep's wall time: from the previous
    # completion (or the call) to its own; the last one runs to the return
    bounds = [start] + done_at[:-1] + [end]
    slots = [b - a for a, b in zip(bounds, bounds[1:])]

    counts = dict.fromkeys(COUNT_FIELDS, 0)
    for record in result.records:
        if record.ok:
            for metric, field in COUNT_FIELDS.items():
                counts[metric] += getattr(record.result.stats, field)
    metrics = result.metrics
    counts.update({metric: getattr(metrics, f) for metric, f in SWEEP_FIELDS.items()})
    out: Dict[str, object] = {
        "setup_s": setup_s,
        "wall_s": end - start,
        "cpu_s": cpu_s,
        "spec_p50_s": metrics.p50_seconds,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "specs": [
            dict(spec_outcome(record), slot=slot)
            for record, slot in zip(result.records, slots)
        ],
        "counts": counts,
    }
    if traced:
        out["layer_samples"] = sampler.counts
        out["stages"] = stages
    return out


def main(argv: List[str]) -> int:
    if argv[:1] == ["setup"]:
        print(json.dumps({"setup_s": set_up()}))
        return 0
    if argv[:1] == ["sample"] and len(argv) >= 4:
        limit = int(argv[argv.index("--limit") + 1]) if "--limit" in argv else 0
        out = sample(
            argv[1], int(argv[2]), pathlib.Path(argv[3]), "--traced" in argv, limit
        )
        print(json.dumps(out))
        return 0
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
