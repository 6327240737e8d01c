"""End-to-end sweep benchmark: cold-cache host throughput per workload.

Run from the repository root::

    python3 benchmarks/e2e/run.py --workload static-ring --seed 7 --seconds 30 --trace 0

Every sample is a fresh interpreter (``child.py``) that imports the
package, then runs one workload through ``repro.api.sweep`` on the serial
backend with an empty result cache and journal, the way a user's first run
of an exhibit does.  Only one child is alive at a time.  A run first starts
one untimed set-up child to warm the bytecode cache, then takes samples
until ``--seconds`` is spent.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates
untraced and traced samples and reports the per-layer metrics.  Every
metric line gives the reported value, then the median, min, max and count
of the per-sample values; the last stdout line is the JSON result.  Outputs are checked against
``expected.json`` at seed 7 and against each other at every seed; any
failed or mismatching spec makes the run exit 1.  ``--regen-expected``
rewrites ``expected.json``.  See ``README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from typing import Dict, List, Optional, Sequence, Tuple

import child

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent.parent
EXPECTED = HERE / "expected.json"
EXPECTED_SEED = 7

WORKLOADS = ("static-ring", "dynamic-ring", "decentralized", "multiprog")
#: samples taken even when ``--seconds`` runs out first
MIN_SAMPLES = 3
#: wall-clock limit for one child
CHILD_TIMEOUT = 150.0

#: end-to-end metric -> unit
END_TO_END = {
    "kinstr_per_s": "kinstr/s",
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
#: layers that take CPU samples on every workload, so their self time is
#: never zero; the rest report only a share
SELF_TIME_LAYERS = (
    "workloads", "frontend", "clusters", "interconnect", "memory", "pipeline",
    "experiments",
)
STAGES = ("generate_trace", "run", "cache_get", "cache_put", "journal", "cache_key")
#: host time per simulated event: metric -> (layer, counts summed as events)
NS_PER_EVENT = {
    "pipeline.ns_per_instr": ("pipeline", ("pipeline.committed",)),
    "clusters.ns_per_issue": ("clusters", ("pipeline.issued",)),
    "interconnect.ns_per_transfer": (
        "interconnect",
        ("interconnect.register_transfers", "interconnect.memory_transfers"),
    ),
    "memory.ns_per_memref": ("memory", ("memory.memrefs",)),
    "frontend.ns_per_branch": ("frontend", ("frontend.branches",)),
}


def per_layer_units() -> Dict[str, str]:
    """Every per-layer metric name -> unit, in report order."""
    units = {name: "count" for name in list(child.COUNT_FIELDS) + list(child.SWEEP_FIELDS)}
    units["experiments.spec_p50_s"] = "s"
    for layer in SELF_TIME_LAYERS:
        units[f"{layer}.self_s"] = "s"
    for layer in child.LAYERS:
        units[f"{layer}.self_share"] = "share"
    for stage in STAGES:
        units[f"stage.{stage}.s"] = "s"
        units[f"stage.{stage}.calls"] = "count"
    units.update({name: "ns" for name in NS_PER_EVENT})
    units["trace.overhead_frac"] = "share"
    units["trace.samples"] = "count"
    return units


# ----------------------------------------------------------------------
# statistics


def quartiles(values: Sequence[float]) -> Tuple[float, float]:
    """First and third quartile, as ``statistics.quantiles(n=4)`` gives them."""
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def spread(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median."""
    q1, q3 = quartiles(values)
    mid = statistics.median(values)
    return (q3 - q1) / mid if mid else 0.0


# ----------------------------------------------------------------------
# children


class BenchError(RuntimeError):
    pass


def child_env(workdir: pathlib.Path) -> Dict[str, str]:
    """The caller's environment without ``REPRO_*``, pointed at ``src``."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(ROOT / "src")
    env["TMPDIR"] = str(workdir)
    return env


def run_child(args: Sequence[str], workdir: pathlib.Path) -> Dict[str, object]:
    """Run ``child.py`` to completion and return its JSON output."""
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), *args],
            cwd=ROOT, env=child_env(workdir), capture_output=True, text=True,
            timeout=CHILD_TIMEOUT,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"child {list(args)} exceeded {CHILD_TIMEOUT:g}s") from exc
    if proc.returncode != 0:
        raise BenchError(
            f"child {list(args)} exited {proc.returncode}:\n{proc.stderr[-2000:]}"
        )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_sample(workload: str, seed: int, workdir: pathlib.Path, traced: bool,
               limit: int = 0) -> Dict[str, object]:
    """One cold-cache sample in its own empty cache/journal directory."""
    sample_dir = pathlib.Path(tempfile.mkdtemp(prefix="sample-", dir=workdir))
    try:
        args = ["sample", workload, str(seed), str(sample_dir)]
        if traced:
            args.append("--traced")
        if limit:
            args += ["--limit", str(limit)]
        return run_child(args, workdir)
    finally:
        shutil.rmtree(sample_dir, ignore_errors=True)


def make_workdir() -> pathlib.Path:
    """A private working directory inside the checkout."""
    base = ROOT / ".bench_work"
    base.mkdir(exist_ok=True)
    return pathlib.Path(tempfile.mkdtemp(prefix="run-", dir=base))


def remove_workdir(workdir: pathlib.Path) -> None:
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        workdir.parent.rmdir()
    except OSError:
        pass  # another run still uses it


# ----------------------------------------------------------------------
# correctness


def load_expected() -> Dict[str, Dict[str, str]]:
    with open(EXPECTED, encoding="utf-8") as fh:
        return json.load(fh)


def check_outputs(samples: Sequence[Dict], expected: Optional[Dict[str, str]]
                  ) -> Tuple[int, int, List[str]]:
    """``(attempted, failed, problems)`` over every spec of every sample.

    A spec fails when its record is not ok, it committed other than its
    whole trace, or its digest differs from ``expected`` (when given) or
    else from the first sample's.
    """
    reference = expected or {
        spec["label"]: spec.get("digest") for spec in samples[0]["specs"]
    }
    attempted = failed = 0
    problems: List[str] = []
    for index, sample in enumerate(samples):
        for spec in sample["specs"]:
            attempted += 1
            label = spec["label"]
            if not spec["ok"]:
                problem = "record not ok"
            elif spec["committed"] != spec["instructions"]:
                problem = f"committed {spec['committed']} of {spec['instructions']}"
            elif spec["digest"] != reference.get(label):
                problem = "stats digest differs from " + (
                    "expected.json" if expected else "sample 0"
                )
            else:
                continue
            failed += 1
            problems.append(f"sample {index} {label}: {problem}")
    return attempted, failed, problems


# ----------------------------------------------------------------------
# metrics


def fastest(samples: Sequence[Dict], key: str) -> float:
    """Sum over specs of each spec's smallest ``key`` across ``samples``.

    Contention on a shared host comes in bursts of about a second and
    only ever slows a spec down, so a spec's fastest cold execution in the
    run is its steadiest cost.
    """
    return sum(
        min(sample["specs"][i][key] for sample in samples)
        for i in range(len(samples[0]["specs"]))
    )


def kinstr_per_s(sample: Dict) -> float:
    """Committed instructions per second of one sample's spec run time."""
    specs = sample["specs"]
    return sum(s["committed"] for s in specs) / sum(s["duration"] for s in specs) / 1e3


def end_to_end_metrics(samples: Sequence[Dict]) -> Dict[str, Tuple[float, List[float]]]:
    """Every end-to-end metric: (reported value, per-sample values)."""
    committed = sum(spec["committed"] for spec in samples[0]["specs"])
    setups = [s["setup_s"] for s in samples]
    rss = [s["peak_rss_mb"] for s in samples]
    return {
        "kinstr_per_s": (
            committed / fastest(samples, "duration") / 1e3,
            [kinstr_per_s(s) for s in samples],
        ),
        "wall_s": (fastest(samples, "slot"), [s["wall_s"] for s in samples]),
        "setup_s": (statistics.median(setups), setups),
        "peak_rss_mb": (statistics.median(rss), rss),
    }


def per_layer_metrics(untraced: Sequence[Dict], traced: Sequence[Dict]
                      ) -> Dict[str, Tuple[float, List[float]]]:
    """Every per-layer metric: (reported value, per-sample values)."""
    values: Dict[str, List[float]] = {
        name: [s["counts"][name] for s in untraced]
        for name in list(child.COUNT_FIELDS) + list(child.SWEEP_FIELDS)
    }
    values["experiments.spec_p50_s"] = [s["spec_p50_s"] for s in untraced]
    self_s: Dict[str, List[float]] = {layer: [] for layer in child.LAYERS}
    for sample in traced:
        layer_samples = sample["layer_samples"]
        total = sum(layer_samples.values())
        for layer in child.LAYERS:
            self_s[layer].append(layer_samples[layer] / total * sample["cpu_s"])
    pooled = {
        layer: sum(s["layer_samples"][layer] for s in traced) for layer in child.LAYERS
    }
    pooled_total = sum(pooled.values())
    for layer in SELF_TIME_LAYERS:
        values[f"{layer}.self_s"] = self_s[layer]
    for layer in child.LAYERS:
        values[f"{layer}.self_share"] = [pooled[layer] / pooled_total]
    for stage in STAGES:
        values[f"stage.{stage}.s"] = [s["stages"][stage][0] for s in traced]
        values[f"stage.{stage}.calls"] = [s["stages"][stage][1] for s in traced]
    for name, (layer, events) in NS_PER_EVENT.items():
        count = sum(untraced[0]["counts"][event] for event in events)
        values[name] = [seconds / count * 1e9 for seconds in self_s[layer]]
    values["trace.overhead_frac"] = [fastest(traced, "slot") / fastest(untraced, "slot") - 1.0]
    values["trace.samples"] = [pooled_total]
    return {name: (statistics.median(v), v) for name, v in values.items()}


def summarize(metrics: Dict[str, Tuple[float, List[float]]], units: Dict[str, str]
              ) -> Dict[str, Dict]:
    """Reported value and unit, plus median, min, max and count over samples."""
    return {
        name: {
            "value": metrics[name][0],
            "unit": units[name],
            "median": statistics.median(metrics[name][1]),
            "min": min(metrics[name][1]),
            "max": max(metrics[name][1]),
            "n": len(metrics[name][1]),
        }
        for name in units
    }


# ----------------------------------------------------------------------
# entry point


def collect(workload: str, seed: int, seconds: float, trace: bool,
            workdir: pathlib.Path) -> Tuple[List[Dict], List[Dict]]:
    """Untraced and traced samples of one run.

    A sample starts while the previous one would still fit in ``seconds``.
    """
    run_child(["setup"], workdir)  # untimed: warms the bytecode cache
    untraced: List[Dict] = []
    traced: List[Dict] = []
    deadline = time.perf_counter() + seconds
    last = 0.0
    while (len(untraced) + len(traced) < MIN_SAMPLES
           or time.perf_counter() + last <= deadline):
        start = time.perf_counter()
        traced_turn = trace and len(traced) < len(untraced)
        (traced if traced_turn else untraced).append(
            run_sample(workload, seed, workdir, traced_turn)
        )
        last = time.perf_counter() - start
    return untraced, traced


def print_report(metrics: Dict[str, Dict]) -> None:
    print(f"{'metric':<38} {'value':>12} {'median':>12} {'min':>12} {'max':>12} "
          f"{'n':>3}  unit")
    for name, m in metrics.items():
        print(f"{name:<38} {m['value']:>12.6g} {m['median']:>12.6g} {m['min']:>12.6g} "
              f"{m['max']:>12.6g} {m['n']:>3}  {m['unit']}")


def regen_expected() -> int:
    workdir = make_workdir()
    try:
        expected = {}
        for workload in WORKLOADS:
            sample = run_sample(workload, EXPECTED_SEED, workdir, traced=False)
            _, failed, problems = check_outputs([sample], None)
            if failed:
                raise BenchError("\n".join(problems))
            expected[workload] = {s["label"]: s["digest"] for s in sample["specs"]}
    finally:
        remove_workdir(workdir)
    with open(EXPECTED, "w", encoding="utf-8") as fh:
        json.dump(expected, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {EXPECTED}")
    return 0


def parse_args(argv: Optional[Sequence[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=EXPECTED_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=pathlib.Path,
                        help="also write samples, counts and metrics here")
    parser.add_argument("--regen-expected", action="store_true")
    args = parser.parse_args(argv)
    if not args.regen_expected and args.workload is None:
        parser.error("--workload is required")
    return args


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no simulator sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        if args.regen_expected:
            return regen_expected()
        workdir = make_workdir()
        try:
            untraced, traced = collect(
                args.workload, args.seed, args.seconds, bool(args.trace), workdir
            )
        finally:
            remove_workdir(workdir)
        expected = None
        if args.seed == EXPECTED_SEED:
            expected = load_expected()[args.workload]
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    attempted, failed, problems = check_outputs(untraced + traced, expected)
    counts_differ = [
        name for name in untraced[0]["counts"]
        if any(s["counts"][name] != untraced[0]["counts"][name] for s in untraced + traced)
    ]
    problems += [f"count {name} differs between samples" for name in counts_differ]
    correct = not problems
    metrics: Dict[str, Dict] = {}
    if correct and args.trace:
        metrics = summarize(per_layer_metrics(untraced, traced), per_layer_units())
    elif correct:
        metrics = summarize(end_to_end_metrics(untraced), END_TO_END)
    print(f"workload {args.workload}  seed {args.seed}  samples "
          f"{len(untraced)} untraced + {len(traced)} traced")
    print_report(metrics)
    for problem in problems:
        print(f"INCORRECT: {problem}", file=sys.stderr)
    if args.out is not None:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump({
                "workload": args.workload, "seed": args.seed,
                "seconds": args.seconds, "trace": args.trace,
                "correct": correct, "problems": problems,
                "metrics": metrics, "counts": untraced[0]["counts"],
                "untraced": untraced, "traced": traced,
            }, fh, indent=1)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": m["value"], "unit": m["unit"]} for name, m in metrics.items()
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
