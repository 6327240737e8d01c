"""One entry point per paper exhibit (Figures 3, 5, 6, 7, 8, the
Section 4/5/6 text numbers, the steering ablation and the two extension
exhibits), and :data:`EXHIBITS`, the registry of all of them with
Tables 3 and 4.

Each ``figure*`` function returns ``{benchmark: {scheme: RunResult}}`` and
has a matching ``print_*`` renderer.  Schemes are declarative
:class:`~repro.experiments.sweep.ControllerSpec` recipes so every run gets
a fresh controller — and so the whole matrix can fan out across a
:class:`~repro.experiments.sweep.SweepRunner` worker pool; pass
``runner=`` to parallelize or cache (the default is the serial, uncached
reference path, which is bit-identical by construction).
"""

from __future__ import annotations

from dataclasses import replace
from functools import partial
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from ..config import (
    TOPOLOGIES,
    ClusterConfig,
    ProcessorConfig,
    decentralized_config,
    default_config,
    grid_config,
)
from ..core import ExploreConfig, NoExploreConfig
from ..errors import ConfigError
from ..workloads.profiles import BENCHMARK_NAMES
from .reporting import format_table, geomean, ipc_table, multiprog_table
from .runner import DEFAULT_SEED, RunResult, scaled_length
from .sweep import ControllerSpec, RunSpec, SweepRunner, require_ok, serial_runner
from .tables import print_table3, print_table4, table3, table4

#: the two base cases shown in every results figure of the paper
BASE_SCHEMES = ("static-4", "static-16")

#: default trace length (before ``REPRO_TRACE_SCALE``) of the idealization,
#: sensitivity and steering exhibits, whose matrices are the widest
SHORT_TRACE_LENGTH = 40_000


def _standard_schemes() -> Dict[str, ControllerSpec]:
    return {
        "static-4": ControllerSpec.static(4),
        "static-16": ControllerSpec.static(16),
    }


def run_matrix(
    schemes: Mapping[str, ControllerSpec],
    config_for,
    benchmarks: Optional[Sequence[str]] = None,
    trace_length: Optional[int] = None,
    seed: int = DEFAULT_SEED,
    runner: Optional[SweepRunner] = None,
) -> Dict[str, Dict[str, RunResult]]:
    """Run every benchmark (default: all nine) under every scheme on a
    shared trace.

    ``config_for(scheme_name)`` supplies the processor configuration (most
    exhibits ignore the name; the idealization study does not).
    """
    benchmarks = benchmarks or BENCHMARK_NAMES
    runner = runner or serial_runner()
    length = trace_length if trace_length is not None else scaled_length()
    specs = [
        RunSpec(
            profile=bench,
            trace_length=length,
            seed=seed,
            config=config_for(scheme),
            controller=spec,
            label=scheme,
        )
        for bench in benchmarks
        for scheme, spec in schemes.items()
    ]
    records = require_ok(runner.run(specs))
    results: Dict[str, Dict[str, RunResult]] = {b: {} for b in benchmarks}
    for record in records:
        results[record.spec.profile][record.spec.label] = record.result
    return results


def _ipc_view(results: Mapping[str, Mapping[str, RunResult]]) -> Dict[str, Dict[str, float]]:
    return {b: {s: r.ipc for s, r in by.items()} for b, by in results.items()}


# ----------------------------------------------------------------------
# Figure 3: static cluster counts, centralized cache, ring


def figure3(
    benchmarks: Optional[Sequence[str]] = None,
    trace_length: Optional[int] = None,
    runner: Optional[SweepRunner] = None,
) -> Dict[str, Dict[str, RunResult]]:
    """IPC of fixed 2/4/8/16-cluster organizations (Figure 3)."""
    schemes = {f"static-{n}": ControllerSpec.static(n) for n in (2, 4, 8, 16)}
    return run_matrix(
        schemes, lambda s: default_config(16), benchmarks, trace_length, runner=runner
    )


def print_figure3(results: Mapping[str, Mapping[str, RunResult]]) -> str:
    return ipc_table(
        _ipc_view(results),
        [f"static-{n}" for n in (2, 4, 8, 16)],
        "Figure 3: IPC for fixed cluster organizations (centralized cache, ring)",
    )


# ----------------------------------------------------------------------
# Figure 5: interval-based schemes, centralized cache


def figure5_schemes(
    explore: Optional[ExploreConfig] = None,
    noexplore_intervals: Sequence[int] = (500, 1_000, 2_000),
) -> Dict[str, ControllerSpec]:
    schemes = _standard_schemes()
    schemes["interval-explore"] = ControllerSpec.explore(explore)
    for length in noexplore_intervals:
        schemes[f"no-explore-{length}"] = ControllerSpec.no_explore(
            NoExploreConfig.scaled(interval_length=length)
        )
    return schemes


def figure5(
    benchmarks: Optional[Sequence[str]] = None,
    trace_length: Optional[int] = None,
    runner: Optional[SweepRunner] = None,
) -> Dict[str, Dict[str, RunResult]]:
    """Base cases + interval-based schemes (Figure 5).

    The paper's no-exploration interval lengths (1K/10K/100K over 100M+
    windows) scale here to 0.5K/1K/2K over laptop traces.
    """
    return run_matrix(
        figure5_schemes(), lambda s: default_config(16), benchmarks, trace_length,
        runner=runner,
    )


def print_figure5(results: Mapping[str, Mapping[str, RunResult]]) -> str:
    order = ["static-4", "static-16", "interval-explore", "no-explore-500",
             "no-explore-1000", "no-explore-2000"]
    text = ipc_table(
        _ipc_view(results), order,
        "Figure 5: interval-based schemes (centralized cache, ring)",
        baseline_schemes=BASE_SCHEMES,
    )
    disabled = geomean(
        16 - by["interval-explore"].avg_active_clusters
        for by in results.values()
        if "interval-explore" in by
    )
    return text + f"\navg clusters disabled by interval-explore (geomean): {disabled:.1f} / 16"


# ----------------------------------------------------------------------
# Figure 6: fine-grained reconfiguration


def figure6(
    benchmarks: Optional[Sequence[str]] = None,
    trace_length: Optional[int] = None,
    runner: Optional[SweepRunner] = None,
) -> Dict[str, Dict[str, RunResult]]:
    """Base cases, exploration, and the two fine-grained schemes (Figure 6)."""
    schemes = _standard_schemes()
    schemes["interval-explore"] = ControllerSpec.explore()
    schemes["finegrain-branch"] = ControllerSpec.finegrain()
    schemes["finegrain-subroutine"] = ControllerSpec.subroutine()
    return run_matrix(
        schemes, lambda s: default_config(16), benchmarks, trace_length, runner=runner
    )


def print_figure6(results: Mapping[str, Mapping[str, RunResult]]) -> str:
    order = ["static-4", "static-16", "interval-explore",
             "finegrain-branch", "finegrain-subroutine"]
    return ipc_table(
        _ipc_view(results), order,
        "Figure 6: fine-grained reconfiguration (centralized cache, ring)",
        baseline_schemes=BASE_SCHEMES,
    )


# ----------------------------------------------------------------------
# Figure 7: decentralized cache


def figure7(
    benchmarks: Optional[Sequence[str]] = None,
    trace_length: Optional[int] = None,
    runner: Optional[SweepRunner] = None,
) -> Dict[str, Dict[str, RunResult]]:
    """Interval-based schemes on the decentralized cache model (Figure 7).

    Fine-grained schemes do not apply: every reconfiguration flushes the L1
    (Section 5), which only the interval-based schemes amortize.
    """
    schemes = _standard_schemes()
    schemes["interval-explore"] = ControllerSpec.explore()
    # every reconfiguration flushes the L1 here, so short intervals only add
    # flush traffic — the paper likewise found no benefit from reconfiguring
    # the decentralized model at shorter intervals (Section 5)
    schemes["no-explore-1000"] = ControllerSpec.no_explore(
        NoExploreConfig.scaled(interval_length=1_000)
    )
    schemes["no-explore-2000"] = ControllerSpec.no_explore(
        NoExploreConfig.scaled(interval_length=2_000)
    )
    return run_matrix(
        schemes, lambda s: decentralized_config(16), benchmarks, trace_length,
        runner=runner,
    )


def print_figure7(results: Mapping[str, Mapping[str, RunResult]]) -> str:
    order = ["static-4", "static-16", "interval-explore",
             "no-explore-1000", "no-explore-2000"]
    text = ipc_table(
        _ipc_view(results), order,
        "Figure 7: decentralized cache model",
        baseline_schemes=BASE_SCHEMES,
    )
    flushes = {
        b: by["interval-explore"].stats.flush_writebacks
        for b, by in results.items() if "interval-explore" in by
    }
    worst = max(flushes, key=lambda b: flushes[b]) if flushes else "-"
    return text + (
        f"\nflush writebacks (interval-explore): total "
        f"{sum(flushes.values())}, worst {worst} ({flushes.get(worst, 0)})"
    )


# ----------------------------------------------------------------------
# Figure 8: grid interconnect


def figure8(
    benchmarks: Optional[Sequence[str]] = None,
    trace_length: Optional[int] = None,
    runner: Optional[SweepRunner] = None,
) -> Dict[str, Dict[str, RunResult]]:
    """Static bases + exploration on the grid interconnect (Figure 8)."""
    schemes = _standard_schemes()
    schemes["interval-explore"] = ControllerSpec.explore()
    return run_matrix(
        schemes, lambda s: grid_config(16), benchmarks, trace_length, runner=runner
    )


def print_figure8(results: Mapping[str, Mapping[str, RunResult]]) -> str:
    return ipc_table(
        _ipc_view(results),
        ["static-4", "static-16", "interval-explore"],
        "Figure 8: grid interconnect (centralized cache)",
        baseline_schemes=BASE_SCHEMES,
    )


# ----------------------------------------------------------------------
# Section 4/5 text: communication-cost idealizations


def idealized_communication(
    benchmarks: Optional[Sequence[str]] = None,
    trace_length: Optional[int] = None,
    organization: str = "centralized",
    runner: Optional[SweepRunner] = None,
) -> Dict[str, Dict[str, RunResult]]:
    """Zero-cost memory/register communication studies (Sections 4 and 5).

    The paper reports +31%/+11% (centralized, 16 clusters) and +29%/+27%
    (decentralized) for free load-store and free register communication.
    """
    if trace_length is None:
        trace_length = scaled_length(SHORT_TRACE_LENGTH)
    base = default_config(16) if organization == "centralized" else decentralized_config(16)

    def config_for(scheme: str) -> ProcessorConfig:
        inter = base.interconnect
        if scheme == "free-memory":
            inter = replace(inter, free_memory_communication=True)
        elif scheme == "free-register":
            inter = replace(inter, free_register_communication=True)
        return base.with_interconnect(inter)

    schemes = {
        "baseline": ControllerSpec.none(),
        "free-memory": ControllerSpec.none(),
        "free-register": ControllerSpec.none(),
    }
    return run_matrix(schemes, config_for, benchmarks, trace_length, runner=runner)


def print_idealized(results: Mapping[str, Mapping[str, RunResult]], organization: str) -> str:
    view = _ipc_view(results)
    text = ipc_table(
        view, ["baseline", "free-memory", "free-register"],
        f"Communication idealizations ({organization}, 16 clusters)",
    )
    base_gm = geomean(v["baseline"] for v in view.values())
    mem_gm = geomean(v["free-memory"] for v in view.values())
    reg_gm = geomean(v["free-register"] for v in view.values())
    return text + (
        f"\nfree memory comm: {100 * (mem_gm / base_gm - 1):+.1f}%"
        f"   free register comm: {100 * (reg_gm / base_gm - 1):+.1f}%"
    )


# ----------------------------------------------------------------------
# Section 6: sensitivity analysis


def sensitivity_variants() -> Dict[str, ProcessorConfig]:
    """The Section 6 processor variants."""
    base = default_config(16)
    fewer = ClusterConfig(issue_queue_size=10, regfile_size=20)
    more = ClusterConfig(issue_queue_size=20, regfile_size=40)
    more_fus = ClusterConfig(
        issue_queue_size=15, regfile_size=30, int_alus=2, int_muls=1, fp_alus=2, fp_muls=1
    )
    double_hop = replace(base.interconnect, hop_latency=2)
    return {
        "base": base,
        "fewer-resources": base.with_cluster_resources(fewer),
        "more-resources": base.with_cluster_resources(more),
        "more-fus": base.with_cluster_resources(more_fus),
        "double-hop": base.with_interconnect(double_hop),
    }


#: one representative per behaviour class keeps the sensitivity cube
#: (5 variants x 3 schemes x benchmarks) tractable
SENSITIVITY_BENCHMARKS = ("cjpeg", "gzip", "swim", "vpr", "djpeg", "mgrid")


def sensitivity(
    benchmarks: Optional[Sequence[str]] = None,
    trace_length: Optional[int] = None,
    runner: Optional[SweepRunner] = None,
) -> Dict[str, Dict[str, Dict[str, RunResult]]]:
    """For each Section 6 variant: static 4/16 + interval-explore.

    The whole (variant x benchmark x scheme) cube goes to the runner as one
    batch so a worker pool sees maximum parallelism.
    """
    runner = runner or serial_runner()
    if trace_length is None:
        trace_length = scaled_length(SHORT_TRACE_LENGTH)
    schemes = _standard_schemes()
    schemes["interval-explore"] = ControllerSpec.explore()

    specs: List[RunSpec] = []
    keys: List[Tuple[str, str, str]] = []
    for variant, config in sensitivity_variants().items():
        for bench in benchmarks or SENSITIVITY_BENCHMARKS:
            for scheme, spec in schemes.items():
                specs.append(
                    RunSpec(
                        profile=bench,
                        trace_length=trace_length,
                        config=config,
                        controller=spec,
                        label=scheme,
                    )
                )
                keys.append((variant, bench, scheme))

    records = require_ok(runner.run(specs))
    out: Dict[str, Dict[str, Dict[str, RunResult]]] = {}
    for (variant, bench, scheme), record in zip(keys, records):
        out.setdefault(variant, {}).setdefault(bench, {})[scheme] = record.result
    return out


def print_sensitivity(results: Mapping[str, Mapping[str, Mapping[str, RunResult]]]) -> str:
    rows = []
    for variant, matrix in results.items():
        view = _ipc_view(matrix)
        gm = {
            s: geomean(v[s] for v in view.values())
            for s in ("static-4", "static-16", "interval-explore")
        }
        best = max(gm["static-4"], gm["static-16"])
        rows.append(
            [variant, gm["static-4"], gm["static-16"], gm["interval-explore"],
             f"{100 * (gm['interval-explore'] / best - 1):+.1f}%"]
        )
    return format_table(
        ["variant", "static-4", "static-16", "interval-explore", "improvement"],
        rows,
        "Section 6 sensitivity (geomean IPC)",
    )


# ----------------------------------------------------------------------
# Section 2.1 design choice: steering heuristics


#: the steering ablation's benchmarks: serial, branchy and wide codes
STEERING_BENCHMARKS = ("cjpeg", "gzip", "swim", "vpr", "djpeg")

#: scheme name -> RunSpec.steering override (None = producer default)
STEERINGS = {"producer": None, "mod-3": ("mod-n", 3), "first-fit": ("first-fit",)}


def steering_ablation(
    benchmarks: Optional[Sequence[str]] = None,
    trace_length: Optional[int] = None,
    runner: Optional[SweepRunner] = None,
) -> Dict[str, Dict[str, float]]:
    """IPC of each steering heuristic on a 16-cluster machine.

    The paper steers by producer preference with a criticality tiebreak
    and a load-imbalance threshold, which it notes can approximate Mod_N
    (balance first) and First_Fit (communication first) by tuning the
    threshold.  Returns ``{benchmark: {scheme: ipc}}``.
    """
    runner = runner or serial_runner()
    if trace_length is None:
        trace_length = scaled_length(SHORT_TRACE_LENGTH)
    specs = [
        RunSpec(
            profile=bench,
            trace_length=trace_length,
            config=default_config(16),
            label=scheme,
            steering=steering,
            warmup=min(6_000, trace_length // 4),
        )
        for bench in benchmarks or STEERING_BENCHMARKS
        for scheme, steering in STEERINGS.items()
    ]
    out: Dict[str, Dict[str, float]] = {}
    for record in require_ok(runner.run(specs)):
        out.setdefault(record.spec.profile, {})[record.spec.label] = record.result.ipc
    return out


def print_steering_ablation(results: Mapping[str, Mapping[str, float]]) -> str:
    rows = [[b] + [results[b][s] for s in STEERINGS] for b in sorted(results)]
    rows.append(["geomean"] + [geomean(by[s] for by in results.values()) for s in STEERINGS])
    return format_table(
        ["benchmark"] + list(STEERINGS),
        rows,
        "Steering-heuristic ablation (16 clusters, centralized cache)",
    )


# ----------------------------------------------------------------------
# fig_multiprog: co-scheduled threads under competing arbiters


#: the fabrics the multiprog exhibit compares (placement matters on all
#: three; the flat ring is covered by the conformance suite instead)
MULTIPROG_FABRICS = ("grid", "torus", "ring-of-rings")

#: default 2-thread mix: one communication-heavy, one parallel profile
MULTIPROG_MIX = ("gzip", "swim")


def fig_multiprog(
    benchmarks: Optional[Sequence[str]] = None,
    trace_length: Optional[int] = None,
    runner: Optional[SweepRunner] = None,
    seed: int = DEFAULT_SEED,
    fabrics: Sequence[str] = MULTIPROG_FABRICS,
) -> Dict[Tuple[str, ...], Dict[str, Dict[str, Dict[str, float]]]]:
    """Fairness/throughput of every arbiter on every fabric.

    ``benchmarks`` is the co-scheduled thread mix: 2-4 profile names
    (default :data:`MULTIPROG_MIX`); any other count raises
    :class:`~repro.errors.ConfigError` before a run starts.  Returns
    ``{mix: {arbiter: {fabric: metrics}}}`` where ``metrics`` holds
    ``weighted_speedup`` (vs. each thread running alone on the same
    fabric, measured in the same sweep batch), ``throughput_ipc``,
    ``harmonic_mean_ipc``, ``arb_grants``, and ``arb_reclaims``.
    """
    from ..multiprog import MultiProgSpec, arbiter_names, thread_seed
    from ..multiprog.spec import DEFAULT_TRACE_LENGTH
    from .sweep import multiprog_run_spec

    # the exhibit co-schedules its benchmarks as one thread mix rather
    # than iterating them, so "all nine" is not a default
    mix = tuple(benchmarks or MULTIPROG_MIX)
    if not 2 <= len(mix) <= 4:
        raise ConfigError(
            f"fig_multiprog co-schedules 2-4 benchmarks, got {len(mix)}: "
            f"{','.join(mix)}"
        )
    fabrics = tuple(fabrics)
    arbiters = arbiter_names()
    runner = runner or serial_runner()
    length = trace_length if trace_length is not None else DEFAULT_TRACE_LENGTH

    # one batch: the arbiter matrix plus the per-fabric solo baselines
    specs: List[RunSpec] = []
    for fabric in fabrics:
        for arbiter in arbiters:
            specs.append(
                multiprog_run_spec(
                    MultiProgSpec(
                        workloads=mix,
                        trace_length=length,
                        seed=seed,
                        topology=fabric,
                        arbiter=arbiter,
                        label=f"{arbiter}/{fabric}",
                    )
                )
            )
        for index, bench in enumerate(mix):
            specs.append(
                RunSpec(
                    profile=bench,
                    trace_length=length,
                    seed=thread_seed(seed, index),
                    config=TOPOLOGIES[fabric](16),
                    warmup=0,
                    label=f"solo/{fabric}/{index}",
                )
            )
    records = require_ok(runner.run(specs))

    solo_ipcs: Dict[str, List[float]] = {f: [0.0] * len(mix) for f in fabrics}
    multiprog_results: Dict[Tuple[str, str], object] = {}
    for record in records:
        label = record.spec.label
        if record.spec.multiprog is not None:
            arbiter, fabric = label.split("/")
            multiprog_results[(arbiter, fabric)] = record.multiprog_result
        else:
            _, fabric, index = label.split("/")
            solo_ipcs[fabric][int(index)] = record.result.ipc

    table: Dict[str, Dict[str, Dict[str, float]]] = {}
    for arbiter in arbiters:
        table[arbiter] = {}
        for fabric in fabrics:
            mp = multiprog_results[(arbiter, fabric)]
            table[arbiter][fabric] = {
                "weighted_speedup": mp.weighted_speedup(solo_ipcs[fabric]),
                "throughput_ipc": mp.throughput_ipc,
                "harmonic_mean_ipc": mp.harmonic_mean_ipc,
                "arb_grants": float(mp.arb_grants),
                "arb_reclaims": float(mp.arb_reclaims),
            }
    return {mix: table}


# ----------------------------------------------------------------------
# fig_resilience: graceful degradation under architectural faults


#: topologies the resilience exhibit degrades (all reroute around faults;
#: ring-of-rings is covered by the conformance suite instead)
RESILIENCE_TOPOLOGIES = ("ring", "grid", "torus", "decentralized")

#: controller families compared under fault injection
RESILIENCE_POLICIES = ("none", "explore")

#: injected-fault counts per run (the x axis)
RESILIENCE_RATES = (0, 1, 2, 4)

#: the benchmark carrying the exhibit (communication-sensitive, so link
#: faults are visible, with enough ILP that cluster kills cost IPC)
RESILIENCE_BENCH = "gzip"


def resilience_schedule(
    topology: str, rate: int, trace_length: int, seed: int
):
    """The seeded fault schedule of one exhibit cell (None at rate 0).

    Draws cluster kills, FU disables, and link degrades; link endpoints
    come from the topology's own link table, so every generated fault is
    valid on that fabric.  The window sits early in the run
    (``[length/32, length/8]`` cycles) so even high-IPC configurations
    spend most of the measured region degraded.
    """
    if rate == 0:
        return None
    from ..interconnect.network import build_topology
    from ..resilience import FaultSchedule

    config = TOPOLOGIES[topology](16)
    endpoints = build_topology(
        config.interconnect, config.num_clusters
    ).link_endpoints()
    links = sorted(set(endpoints.values()))[:8]
    return FaultSchedule.seeded(
        seed + rate,
        cycles=trace_length,
        num_clusters=config.num_clusters,
        faults=rate,
        kinds=("cluster", "fu", "link"),
        home_cluster=config.home_cluster,
        links=links,
        window=(max(1, trace_length // 32), max(2, trace_length // 8)),
    )


def fig_resilience(
    benchmarks: Optional[Sequence[str]] = None,
    trace_length: Optional[int] = None,
    runner: Optional[SweepRunner] = None,
    seed: int = DEFAULT_SEED,
    topologies: Sequence[str] = RESILIENCE_TOPOLOGIES,
    policies: Sequence[str] = RESILIENCE_POLICIES,
    rates: Sequence[int] = RESILIENCE_RATES,
) -> Dict[str, Dict[str, Dict[str, Dict[str, Dict[str, float]]]]]:
    """IPC vs. injected-fault rate across topologies x controllers.

    ``benchmarks`` names the one carrier benchmark (default
    :data:`RESILIENCE_BENCH`); any other count raises
    :class:`~repro.errors.ConfigError` before a run starts.  Every
    (topology, policy, rate) cell runs it with a seeded
    :class:`~repro.resilience.FaultSchedule` of ``rate`` faults (rate 0
    is the healthy baseline).  Measurement starts at cycle 0 — the
    degraded region *is* the measurement, so there is no warmup to hide
    it in.  ``policies`` are facade policy names
    (:meth:`ControllerSpec.parse`).  Returns
    ``{benchmark: {topology: {policy: {"faults=N": metrics}}}}`` with
    ``ipc``, ``degraded_frac`` (fraction of cycles spent degraded),
    ``recovery_cycles`` (summed kill-to-remap latency), and
    ``faults_injected``.
    """
    benchmarks = tuple(benchmarks or (RESILIENCE_BENCH,))
    if len(benchmarks) != 1:
        raise ConfigError(
            "fig_resilience takes exactly one carrier benchmark, got "
            f"{len(benchmarks)}: {','.join(benchmarks)}"
        )
    [benchmark] = benchmarks
    runner = runner or serial_runner()
    length = trace_length if trace_length is not None else scaled_length()
    topologies = tuple(topologies)
    policies = tuple(policies)
    rates = tuple(rates)

    specs: List[RunSpec] = []
    for topology in topologies:
        for policy in policies:
            for rate in rates:
                specs.append(
                    RunSpec(
                        profile=benchmark,
                        trace_length=length,
                        seed=seed,
                        config=TOPOLOGIES[topology](16),
                        controller=ControllerSpec.parse(policy),
                        warmup=0,
                        label=f"{topology}/{policy}/{rate}",
                        faults=resilience_schedule(
                            topology, rate, length, seed
                        ),
                    )
                )
    records = require_ok(runner.run(specs))

    table: Dict[str, Dict[str, Dict[str, Dict[str, float]]]] = {}
    for record in records:
        topology, policy, rate = record.spec.label.split("/")
        stats = record.result.stats
        cycles = max(1, stats.cycles)
        table.setdefault(topology, {}).setdefault(policy, {})[
            f"faults={rate}"
        ] = {
            "ipc": record.result.ipc,
            "degraded_frac": stats.degraded_cycles / cycles,
            "recovery_cycles": float(stats.recovery_cycles),
            "faults_injected": float(stats.faults_injected),
        }
    return {benchmark: table}


def print_fig_resilience(
    results: Mapping[str, Mapping[str, Mapping[str, Mapping[str, Mapping[str, float]]]]],
) -> str:
    [(benchmark, by_topology)] = results.items()
    blocks = []
    degraded: Dict[str, Dict[str, float]] = {}
    for topology, by_policy in by_topology.items():
        policies = list(by_policy)
        rate_labels: List[str] = []
        for policy in policies:
            for label in by_policy[policy]:
                if label not in rate_labels:
                    rate_labels.append(label)
        blocks.append(
            format_table(
                ["policy"] + rate_labels,
                [
                    [p] + [by_policy[p][r]["ipc"] for r in rate_labels]
                    for p in policies
                ],
                f"fig_resilience: {benchmark} IPC on {topology} vs injected "
                "faults",
            )
        )
        first = policies[0]
        degraded[topology] = {
            r: by_policy[first][r]["degraded_frac"] for r in rate_labels
        }
    rate_labels = list(next(iter(degraded.values())))
    blocks.append(
        format_table(
            ["topology"] + rate_labels,
            [
                [t] + [degraded[t][r] for r in rate_labels]
                for t in degraded
            ],
            "degraded-cycle fraction (policy: "
            f"{next(iter(next(iter(by_topology.values()))))})",
        )
    )
    return "\n\n".join(blocks)


def print_fig_multiprog(
    results: Mapping[Tuple[str, ...], Mapping[str, Mapping[str, Mapping[str, float]]]],
) -> str:
    from ..multiprog import arbiter_names

    [(benchmarks, table)] = results.items()
    arbiters = [a for a in arbiter_names() if a in table]
    fabrics: List[str] = []
    for arbiter in arbiters:
        for fabric in table[arbiter]:
            if fabric not in fabrics:
                fabrics.append(fabric)
    mix = "+".join(benchmarks)
    blocks = [
        multiprog_table(
            {a: {f: table[a][f]["weighted_speedup"] for f in fabrics}
             for a in arbiters},
            fabrics,
            arbiters,
            f"fig_multiprog: weighted speedup of {mix} (vs solo on the "
            f"same fabric)",
        ),
        multiprog_table(
            {a: {f: table[a][f]["throughput_ipc"] for f in fabrics}
             for a in arbiters},
            fabrics,
            arbiters,
            "throughput (total IPC over global cycles)",
        ),
        multiprog_table(
            {a: {f: table[a][f]["arb_grants"]
                 + table[a][f]["arb_reclaims"] for f in fabrics}
             for a in arbiters},
            fabrics,
            arbiters,
            "allocation churn (grants + reclaims)",
        ),
    ]
    return "\n\n".join(blocks)


# ----------------------------------------------------------------------
# the exhibit registry


#: exhibit name -> (generator, renderer), for every exhibit under
#: ``results/``.  Each generator takes ``(benchmarks=None,
#: trace_length=None, runner=None)`` and owns its defaults; each renderer
#: takes the generator's result alone.  ``python -m repro <name>`` prints
#: the rendered text, which ``results/<name>.txt`` holds.
EXHIBITS: Dict[str, Tuple[Callable[..., object], Callable[..., str]]] = {
    "figure3": (figure3, print_figure3),
    "figure5": (figure5, print_figure5),
    "figure6": (figure6, print_figure6),
    "figure7": (figure7, print_figure7),
    "figure8": (figure8, print_figure8),
    "table3": (table3, print_table3),
    "table4": (table4, print_table4),
    "fig_multiprog": (fig_multiprog, print_fig_multiprog),
    "fig_resilience": (fig_resilience, print_fig_resilience),
    "idealized_comm_centralized": (
        partial(idealized_communication, organization="centralized"),
        partial(print_idealized, organization="centralized"),
    ),
    "idealized_comm_decentralized": (
        partial(idealized_communication, organization="decentralized"),
        partial(print_idealized, organization="decentralized"),
    ),
    "sensitivity": (sensitivity, print_sensitivity),
    "steering_ablation": (steering_ablation, print_steering_ablation),
}
