"""ASCII reporting helpers for the exhibit renderers."""

from __future__ import annotations

import math
from typing import Iterable, List, Mapping, Sequence


def geomean(values: Iterable[float]) -> float:
    """Geometric mean (the paper's aggregate for speedups)."""
    values = [v for v in values if v > 0]
    if not values:
        return 0.0
    return math.exp(sum(math.log(v) for v in values) / len(values))


def harmonic_mean(values: Iterable[float]) -> float:
    """Harmonic mean (the fairness-leaning aggregate for multiprog IPC)."""
    values = list(values)
    if not values or any(v <= 0 for v in values):
        return 0.0
    return len(values) / sum(1.0 / v for v in values)


def multiprog_table(
    metrics: Mapping[str, Mapping[str, float]],
    fabric_order: Sequence[str],
    arbiter_order: Sequence[str],
    title: str,
) -> str:
    """Arbiters x fabrics matrix of one multiprog metric.

    ``metrics[arbiter][fabric]`` is the cell value (e.g. weighted
    speedup); rows follow ``arbiter_order``, columns ``fabric_order``.
    """
    headers = ["arbiter"] + list(fabric_order)
    rows = []
    for arbiter in arbiter_order:
        per_fabric = metrics.get(arbiter, {})
        rows.append(
            [arbiter]
            + [per_fabric.get(f, float("nan")) for f in fabric_order]
        )
    return format_table(headers, rows, title)


def format_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
    title: str = "",
) -> str:
    """Fixed-width ASCII table."""
    cells = [[_fmt(c) for c in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in cells:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines: List[str] = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)))
    lines.append("  ".join("-" * w for w in widths))
    for row in cells:
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
    return "\n".join(lines)


def _fmt(value: object) -> str:
    if isinstance(value, float):
        if value != value or value in (float("inf"), float("-inf")):
            return "inf" if value > 0 else str(value)
        if abs(value) >= 1000:
            return f"{value:.0f}"
        return f"{value:.3f}".rstrip("0").rstrip(".") if value % 1 else f"{value:.0f}"
    return str(value)


def format_sweep_metrics(metrics) -> str:
    """One-block ASCII summary of a :class:`~repro.experiments.sweep.SweepMetrics`.

    Shown by the CLI after ``--jobs`` sweeps and saved as JSON by CI; keep
    the field set in sync with ``SweepMetrics.snapshot``.
    """
    rows = [
        ["backend", metrics.backend.get("kind", "serial")
                    if metrics.backend else "serial"],
        ["workers", metrics.jobs],
        ["runs completed", metrics.completed],
        ["failed / timed out", f"{metrics.failed} / {metrics.timeouts}"],
        ["retries", metrics.retries],
        ["cache hits / misses",
         f"{metrics.cache_hits} / {metrics.cache_misses} "
         f"({100 * metrics.hit_rate:.0f}% hit rate)"],
        ["wall time", f"{metrics.wall_seconds:.2f}s"],
        ["worker utilization", f"{100 * metrics.worker_utilization:.0f}%"],
        ["run latency p50 / p95",
         f"{metrics.p50_seconds:.2f}s / {metrics.p95_seconds:.2f}s"],
    ]
    # fault-tolerance counters only earn a row when something happened
    if metrics.journal_skips:
        rows.append(["resumed from journal", metrics.journal_skips])
    if metrics.pool_respawns or metrics.poisoned:
        rows.append(["pool respawns / poisoned",
                     f"{metrics.pool_respawns} / {metrics.poisoned}"])
    if metrics.journal_errors:
        rows.append(["journal write errors", metrics.journal_errors])
    return format_table(["metric", "value"], rows, "Sweep metrics")


def format_failure_table(records) -> str:
    """ASCII table of every not-ok :class:`RunRecord` in ``records``.

    The CLI prints this (and exits nonzero) instead of presenting an
    exhibit with silent holes in its matrix.
    """
    rows = []
    for r in records:
        if r.ok:
            continue
        error = r.error if len(r.error) <= 72 else r.error[:69] + "..."
        rows.append(
            [r.spec.profile, r.spec.label or r.spec.controller.kind,
             r.status, r.attempts, error]
        )
    return format_table(
        ["benchmark", "scheme", "status", "attempts", "error"],
        rows,
        f"Sweep failures ({len(rows)} run(s))",
    )


def ipc_table(
    results: Mapping[str, Mapping[str, float]],
    scheme_order: Sequence[str],
    title: str,
    baseline_schemes: Sequence[str] = (),
) -> str:
    """Benchmarks x schemes IPC matrix plus geomean row and, when baseline
    schemes are named, the improvement of each scheme over the best
    baseline (the paper's headline metric)."""
    headers = ["benchmark"] + list(scheme_order)
    rows = []
    for bench in sorted(results):
        rows.append([bench] + [results[bench].get(s, float("nan")) for s in scheme_order])
    gm = {s: geomean(results[b].get(s, 0.0) for b in results) for s in scheme_order}
    rows.append(["geomean"] + [gm[s] for s in scheme_order])
    text = format_table(headers, rows, title)
    if baseline_schemes:
        best_base = max(baseline_schemes, key=lambda s: gm.get(s, 0.0))
        lines = [text, f"best static base case: {best_base} (geomean {gm[best_base]:.3f})"]
        for s in scheme_order:
            if s in baseline_schemes:
                continue
            if gm.get(best_base):
                imp = (gm[s] / gm[best_base] - 1.0) * 100.0
                lines.append(f"  {s}: {imp:+.1f}% vs best static")
        text = "\n".join(lines)
    return text
