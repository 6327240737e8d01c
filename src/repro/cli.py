"""Command-line interface.

Examples::

    python -m repro list                          # the nine benchmarks
    python -m repro run gzip --clusters 4         # one static simulation
    python -m repro run swim --controller explore # dynamic reconfiguration
    python -m repro run swim --controller explore --trace out/  # + trace
    python -m repro figure3 > results/figure3.txt # regenerate an exhibit
    python -m repro figure3 --length 20000        # ... at another length
    python -m repro figure5 --jobs 4 --resume     # restart a killed sweep
    python -m repro table4 --benchmarks swim,crafty
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional, Sequence

from .api import simulate
from .errors import ConfigError, SweepError, SweepInterrupted
from .experiments import EXHIBITS
from .experiments.reporting import format_failure_table, format_sweep_metrics
from .experiments.sweep import SweepConfig, SweepRunner, default_cache_dir
from .workloads.profiles import BENCHMARK_NAMES, PAPER_TABLE3, get_profile

_MACHINES = ("ring", "grid", "decentralized", "monolithic")


def _parse_benchmarks(spec: Optional[str]) -> Sequence[str]:
    if not spec:
        return BENCHMARK_NAMES
    names = tuple(s.strip() for s in spec.split(",") if s.strip())
    for n in names:
        if n not in BENCHMARK_NAMES:
            raise SystemExit(f"unknown benchmark {n!r}; choose from {BENCHMARK_NAMES}")
    return names


_EPILOG = """\
every exhibit command prints the text of results/<exhibit>.txt:
  python -m repro sensitivity --jobs 4 > results/sensitivity.txt

sweep execution flags (every exhibit command):
  --jobs N --no-cache --timeout SECONDS      parallelism and caching
  --backend serial|process-pool              how specs execute (auto)
  --metrics-json PATH                        sweep metrics snapshot as JSON
  --journal PATH / --resume                  checkpoint + restart a killed sweep
  --trace DIR                                per-run timings + Perfetto trace

multiprogrammed runs:
  python -m repro fig_multiprog              arbiters x fabrics weighted-speedup
  python -m repro fig_multiprog --benchmarks gzip,swim,mgrid

architectural faults:
  python -m repro fig_resilience             IPC vs fault rate, topologies x
                                             controllers (--benchmarks names
                                             the one carrier benchmark)

docs: docs/SWEEPS.md (sweep engine), docs/OBSERVABILITY.md (tracing),
docs/MULTIPROG.md (co-scheduling), docs/ARCHITECTURE.md (package map)
"""


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Clustered-processor reconfiguration reproduction (ISCA 2003)",
        epilog=_EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list the nine benchmark profiles")

    run = sub.add_parser("run", help="simulate one benchmark")
    run.add_argument("benchmark", choices=BENCHMARK_NAMES)
    run.add_argument("--length", type=int, default=30_000)
    run.add_argument("--seed", type=int, default=7)
    run.add_argument("--clusters", type=int, default=16,
                     help="active clusters for the static controller")
    run.add_argument("--machine", choices=_MACHINES, default="ring")
    run.add_argument(
        "--controller",
        choices=["static", "explore", "no-explore", "finegrain", "subroutine"],
        default="static",
    )
    run.add_argument("--warmup", type=int, default=4_000)
    run.add_argument("--trace", default=None, metavar="DIR",
                     help="write structured trace output (events.jsonl, "
                          "timeline.csv, Perfetto trace.json) to DIR")

    for name in EXHIBITS:
        ex = sub.add_parser(name, help=f"regenerate results/{name}.txt")
        ex.add_argument("--benchmarks", default="",
                        help="comma-separated benchmarks (default: the "
                             "exhibit's own, for most all nine)")
        ex.add_argument("--length", type=int, default=None,
                        help="trace length (default: the exhibit's own, "
                             "for most 60000 x REPRO_TRACE_SCALE)")
        ex.add_argument("--jobs", type=int, default=None,
                        help="worker processes for the sweep "
                             "(default: REPRO_JOBS or cpu_count-1)")
        ex.add_argument("--backend", default="auto",
                        choices=["auto", "serial", "process-pool"],
                        help="where specs run (default: auto — serial "
                             "for one job, else process-pool)")
        ex.add_argument("--no-cache", action="store_true",
                        help="bypass the on-disk result cache "
                             "(REPRO_CACHE_DIR or ~/.cache/repro)")
        ex.add_argument("--timeout", type=float, default=None,
                        help="per-run timeout in seconds")
        ex.add_argument("--metrics-json", default=None, metavar="PATH",
                        help="write sweep metrics (cache hits, latency "
                             "percentiles, utilization) as JSON")
        ex.add_argument("--journal", default=None, metavar="PATH",
                        help="append every completed run to this JSONL "
                             "checkpoint journal (default with --resume: "
                             "<cache dir>/journals/<exhibit>.jsonl)")
        ex.add_argument("--resume", action="store_true",
                        help="skip runs already completed in the journal "
                             "(restart a killed sweep where it died)")
        ex.add_argument("--trace", default=None, metavar="DIR",
                        help="write per-run sweep timings (sweep_metrics.json)"
                             " and a Perfetto worker-utilization trace "
                             "(sweep_trace.json) to DIR")
    return parser


def _cmd_list() -> int:
    for name in BENCHMARK_NAMES:
        profile = get_profile(name)
        ipc, interval = PAPER_TABLE3[name]
        print(f"{name:8s} paper IPC {ipc:4.2f}, mispredict interval {interval:>6d}  "
              f"— {profile.description}")
    return 0


def _run_policy(machine: str, controller: str, clusters: int) -> str:
    """Map the ``run`` subcommand's flags to a facade ``reconfig_policy``."""
    if machine == "monolithic":
        return "none"
    if controller == "static":
        return f"static-{clusters}"
    return controller


def _cmd_run(args: argparse.Namespace) -> int:
    result = simulate(
        args.benchmark,
        trace_length=args.length,
        seed=args.seed,
        topology=args.machine,
        reconfig_policy=_run_policy(args.machine, args.controller, args.clusters),
        warmup=args.warmup,
        trace=args.trace,
    )
    s = result.stats
    print(f"{args.benchmark} on {args.machine} "
          f"({args.controller}{'' if args.controller != 'static' else f'-{args.clusters}'})")
    print(f"  IPC                {result.ipc:.3f}")
    print(f"  cycles             {result.cycles}")
    print(f"  branch accuracy    {s.branch_accuracy:.1%}")
    print(f"  mispredict intvl   {result.mispredict_interval:.0f}")
    print(f"  L1 hit rate        {s.l1_hit_rate:.1%}")
    print(f"  avg active clstrs  {result.avg_active_clusters:.1f}")
    print(f"  reconfigurations   {result.reconfigurations}")
    if args.trace:
        print(f"[trace written to {args.trace}]", file=sys.stderr)
    return 0


def _journal_path(name: str, args: argparse.Namespace):
    """Resolve the checkpoint journal path for an exhibit command."""
    if args.journal:
        return args.journal
    if args.resume:
        return default_cache_dir() / "journals" / f"{name}.jsonl"
    return None


def _cmd_exhibit(name: str, args: argparse.Namespace) -> int:
    generate, render = EXHIBITS[name]
    # only what the user gave: each generator owns its defaults
    benchmarks = _parse_benchmarks(args.benchmarks) if args.benchmarks else None
    try:
        runner = SweepRunner(
            SweepConfig(
                backend=args.backend,
                jobs=args.jobs,
                use_cache=not args.no_cache,
                timeout=args.timeout,
                journal=_journal_path(name, args),
                resume=args.resume,
                trace_dir=args.trace,
            )
        )
        results = generate(
            benchmarks=benchmarks, trace_length=args.length, runner=runner
        )
    except ConfigError as error:
        # a bad argument, such as --timeout -1 or a 5-thread fig_multiprog
        # mix, fails before any run starts
        print(error, file=sys.stderr)
        return 2
    except SweepInterrupted as interrupt:
        print(f"\n{interrupt}", file=sys.stderr)
        if runner.journal is not None:
            print(f"[resume with: python -m repro {name} --resume"
                  f" --journal {runner.journal.path}]", file=sys.stderr)
        return 130
    except SweepError as failure:
        # never present an exhibit with silent holes in its matrix: show
        # the failure table and exit nonzero
        print(format_failure_table(failure.records), file=sys.stderr)
        print(f"\n{format_sweep_metrics(runner.metrics)}", file=sys.stderr)
        return 1
    print(render(results))
    print(f"\n{format_sweep_metrics(runner.metrics)}", file=sys.stderr)
    if args.metrics_json:
        import json

        with open(args.metrics_json, "w") as fh:
            json.dump(runner.metrics.snapshot(), fh, indent=2)
        print(f"[sweep metrics written to {args.metrics_json}]", file=sys.stderr)
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "list":
        return _cmd_list()
    if args.command == "run":
        return _cmd_run(args)
    return _cmd_exhibit(args.command, args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
