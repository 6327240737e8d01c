"""Table 3 (benchmark characterization) and Table 4 (instability) exhibits."""

from __future__ import annotations

from typing import Dict, Mapping, Optional, Sequence

from ..config import default_config, monolithic_config
from ..core.instability import InstabilityProfile, instability_profile
from ..core.phase import PhaseDetectConfig
from ..workloads.profiles import BENCHMARK_NAMES, PAPER_TABLE3, PAPER_TABLE4
from .reporting import format_table
from .runner import RunResult, scaled_length
from .sweep import ControllerSpec, RunSpec, SweepRunner, require_ok, serial_runner


def table3(
    benchmarks: Optional[Sequence[str]] = None,
    trace_length: Optional[int] = None,
    runner: Optional[SweepRunner] = None,
) -> Dict[str, RunResult]:
    """Monolithic-baseline IPC and mispredict interval per benchmark."""
    runner = runner or serial_runner()
    length = trace_length if trace_length is not None else scaled_length()
    specs = [
        RunSpec(
            profile=bench,
            trace_length=length,
            config=monolithic_config(),
            controller=ControllerSpec.none(),
            label="mono",
        )
        for bench in benchmarks or BENCHMARK_NAMES
    ]
    records = require_ok(runner.run(specs))
    return {record.spec.profile: record.result for record in records}


def print_table3(results: Mapping[str, RunResult]) -> str:
    rows = []
    for bench in sorted(results):
        r = results[bench]
        paper_ipc, paper_interval = PAPER_TABLE3[bench]
        rows.append(
            [bench, r.ipc, paper_ipc, r.mispredict_interval, paper_interval]
        )
    return format_table(
        ["benchmark", "base IPC", "paper IPC", "mispred interval", "paper interval"],
        rows,
        "Table 3: monolithic baseline characterization",
    )


def table4(
    benchmarks: Optional[Sequence[str]] = None,
    trace_length: Optional[int] = None,
    granularity: int = 500,
    factors: Sequence[int] = (1, 2, 4, 8, 16, 32),
    detect: Optional[PhaseDetectConfig] = None,
    runner: Optional[SweepRunner] = None,
) -> Dict[str, InstabilityProfile]:
    """Instability factor vs interval length per benchmark (Table 4).

    One fine-grained recording per benchmark is reanalysed offline at every
    interval length, exactly as the paper does.  The paper's interval
    lengths (10K-40M over billions of instructions) scale here to multiples
    of ``granularity`` over laptop traces; the IPC significance tolerance is
    widened to the scaled controllers' 20% because sub-1K-instruction
    windows measure IPC with far more sampling noise than the paper's.

    The per-benchmark recordings are independent simulations, so they fan
    out through the sweep runner too (``record_granularity`` mode); only
    the cheap offline reanalysis stays in-process.
    """
    detect = detect or PhaseDetectConfig(ipc_tolerance=0.20)
    runner = runner or serial_runner()
    length = trace_length if trace_length is not None else scaled_length()
    specs = [
        RunSpec(
            profile=bench,
            trace_length=length,
            config=default_config(16),
            label="record",
            record_granularity=granularity,
        )
        for bench in benchmarks or BENCHMARK_NAMES
    ]
    records = require_ok(runner.run(specs))
    return {
        record.spec.profile: instability_profile(
            record.records, granularity, factors, detect
        )
        for record in records
    }


def print_table4(profiles: Mapping[str, InstabilityProfile], threshold: float = 0.05) -> str:
    lengths = sorted({l for p in profiles.values() for l in p.factors})
    headers = ["benchmark"] + [str(l) for l in lengths] + ["min acceptable", "paper min"]
    rows = []
    for bench in sorted(profiles):
        profile = profiles[bench]
        min_ok = profile.minimum_acceptable_interval(threshold)
        paper_min, _ = PAPER_TABLE4[bench]
        row = [bench]
        for l in lengths:
            f = profile.factors.get(l)
            row.append("-" if f is None else f"{100 * f:.0f}%")
        row.append(str(min_ok) if min_ok else f">{lengths[-1]}")
        row.append(str(paper_min))
        rows.append(row)
    return format_table(
        headers, rows,
        "Table 4: instability factor by interval length (instructions)",
    )
