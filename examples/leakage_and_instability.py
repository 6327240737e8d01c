#!/usr/bin/env python3
"""Clusters disabled and phase-instability analysis (Sections 4.1 and 8).

Part 1 — leakage: the paper reports that the interval-based scheme disables
8.3 of 16 clusters on average, which saves their leakage power outright
(the supply can be gated).  We run the dynamic scheme on a serial and a
parallel benchmark and report, as Figure 5 does, how many of the 16
clusters it disabled on average, with its IPC against an always-16-clusters
machine.

Part 2 — instability: the Table 4 methodology.  Record fine-grained
interval statistics for a benchmark once, then re-analyse the recording at
several interval lengths and report the instability factor of each — the
knob the variable-interval mechanism of Figure 4 turns.

Run:  python examples/leakage_and_instability.py
"""

from repro import (
    default_config,
    generate_trace,
    get_profile,
    instability_profile,
    record_intervals,
    simulate,
)

TRACE_LENGTH = 25_000


def leakage_study() -> None:
    print("=== clusters disabled by dynamic cluster allocation ===")
    for bench in ("vpr", "swim"):
        trace = generate_trace(get_profile(bench), TRACE_LENGTH, seed=5)
        always_on = simulate(trace, reconfig_policy="static-16")
        tuned = simulate(trace, reconfig_policy="explore")
        print(f"  {bench:6s} clusters disabled {16 - tuned.avg_active_clusters:4.1f} / 16  "
              f"IPC {tuned.ipc:.2f} (static-16 {always_on.ipc:.2f})")


def instability_study() -> None:
    print("\n=== instability factor vs interval length (Table 4 method) ===")
    for bench in ("swim", "crafty"):
        trace = generate_trace(get_profile(bench), TRACE_LENGTH, seed=5)
        records = record_intervals(trace, default_config(16), granularity=250)
        profile = instability_profile(records, granularity=250,
                                      factors_of=(1, 2, 4, 8, 16))
        row = "  ".join(
            f"{length}:{100 * f:.0f}%" for length, f in sorted(profile.factors.items())
        )
        minimum = profile.minimum_acceptable_interval(0.05)
        print(f"  {bench:7s} {row}   min acceptable: {minimum or '>4000'}")


if __name__ == "__main__":
    leakage_study()
    instability_study()
