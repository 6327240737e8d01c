"""Compare two result sets from ``collect.py``, workload by workload.

Usage, from the repository root::

    python3 benchmarks/e2e/compare.py BASE.json CHANGE.json

Prints one row per workload and end-to-end metric: each side's median and
quartiles over its runs, the ratio CHANGE/BASE, and a verdict against the
bounds in ``BENCHMARK.json``:

* ``unresolved`` -- either side's spread (inter-quartile distance over the
  median) exceeds the bound, unless every CHANGE run beats every BASE run;
* ``worse`` -- the CHANGE median is worse than BASE by more than the bound;
* ``better`` -- the CHANGE median is better by more than BASE's own spread
  and CHANGE wins at least nine tenths of the runs paired by seed;
* ``unchanged`` -- otherwise.

Simulated counts of runs with the same workload and seed must be
identical.  Exits 1 on a ``worse`` verdict, a count drift or an incorrect
run.
"""

from __future__ import annotations

import json
import statistics
import sys
from typing import Dict, List, Optional, Sequence, Tuple

from run import ROOT, quartiles, spread


def load(path: str) -> Dict[str, object]:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def bounds() -> Dict[str, Tuple[str, float]]:
    """End-to-end metric -> (better direction, bound) from BENCHMARK.json."""
    spec = load(str(ROOT / "BENCHMARK.json"))
    return {m["name"]: (m["better"], m["bound"]) for m in spec["end_to_end"]}


def verdict(base: Sequence[float], change: Sequence[float], better: str, bound: float,
            pairs: Sequence[Tuple[float, float]]) -> str:
    sign = 1.0 if better == "higher" else -1.0
    if max(spread(base), spread(change)) > bound:
        if min(sign * c for c in change) > max(sign * b for b in base):
            return "better"
        return "unresolved"
    base_median = statistics.median(base)
    gain = sign * (statistics.median(change) - base_median) / base_median
    if gain < -bound:
        return "worse"
    wins = sum(sign * (c - b) > 0 for b, c in pairs)
    if gain > spread(base) and pairs and wins >= 0.9 * len(pairs):
        return "better"
    return "unchanged"


def cell(values: Sequence[float]) -> str:
    q1, q3 = quartiles(values)
    return f"{statistics.median(values):.5g} [{q1:.5g}, {q3:.5g}]"


def compare(base: Dict, change: Dict) -> Tuple[List[str], int]:
    """Report lines and the number of failures (regressions, drifts, errors)."""
    lines = [
        f"{'workload':<14} {'metric':<14} {'base median [q1, q3]':>30} "
        f"{'change median [q1, q3]':>30} {'ratio':>7}  verdict"
    ]
    failures = 0
    for workload in base["workloads"]:
        if workload not in change["workloads"]:
            lines.append(f"{workload:<14} missing from the change set")
            failures += 1
            continue
        base_runs = base["workloads"][workload]["runs"]
        change_runs = change["workloads"][workload]["runs"]
        by_seed = {r["seed"]: r for r in base_runs}
        paired = [(by_seed[r["seed"]], r) for r in change_runs if r["seed"] in by_seed]
        for name, (better, bound) in bounds().items():
            b = [r["metrics"][name] for r in base_runs]
            c = [r["metrics"][name] for r in change_runs]
            pairs = [(rb["metrics"][name], rc["metrics"][name]) for rb, rc in paired]
            result = verdict(b, c, better, bound, pairs)
            failures += result == "worse"
            lines.append(
                f"{workload:<14} {name:<14} {cell(b):>30} {cell(c):>30} "
                f"{statistics.median(c) / statistics.median(b):>7.3f}  {result}"
            )
        if not paired:
            lines.append(f"{workload:<14} no seed in common: counts unchecked")
            failures += 1
        for rb, rc in paired:
            drift = sorted(
                k for k in set(rb["counts"]) | set(rc["counts"])
                if rb["counts"].get(k) != rc["counts"].get(k)
            )
            if drift:
                lines.append(f"{workload:<14} seed {rb['seed']}: counts differ: "
                             + ", ".join(drift))
                failures += 1
        for side, runs in (("base", base_runs), ("change", change_runs)):
            bad = [r["seed"] for r in runs if not r["correct"]]
            if bad:
                lines.append(f"{workload:<14} {side} incorrect at seeds {bad}")
                failures += 1
    return lines, failures


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = list(sys.argv[1:] if argv is None else argv)
    if len(args) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    lines, failures = compare(load(args[0]), load(args[1]))
    print("\n".join(lines))
    print(f"{failures} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
