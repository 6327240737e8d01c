"""Render the committed BENCH_sim_core.json as a markdown table.

The bench table in ``docs/PERFORMANCE.md`` is generated, never
hand-edited: after refreshing the committed numbers, paste this script's
output over the table ::

    PYTHONPATH=src python benchmarks/perf/table.py

The derived ``vs baseline`` column is only present for metrics the seed
commit had a measurement for.
"""

from __future__ import annotations

import json

from .harness import bench_path

SUITE_NAME = "sim_core"


def render(payload: dict) -> str:
    metrics = payload["metrics"]
    speedups = payload.get("speedup_vs_baseline", {})
    lines = [
        "| Bench | Kind | Committed floor | vs seed baseline |",
        "|---|---|---|---|",
    ]
    for name, m in metrics.items():
        speedup = speedups.get(name)
        lines.append(
            "| `{name}` | {kind} | {value:,.0f} {unit} | {speedup} |".format(
                name=name,
                kind=m["kind"],
                value=m["value"],
                unit=m["unit"],
                speedup=f"{speedup:.2f}x" if speedup is not None else "—",
            )
        )
    return "\n".join(lines)


def main() -> int:
    payload = json.loads(bench_path(SUITE_NAME).read_text())
    print(render(payload))
    return 0


if __name__ == "__main__":
    import sys

    sys.exit(main())
