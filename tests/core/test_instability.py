"""Table 4 instability analysis."""

import pytest

from repro.core.instability import (
    InstabilityProfile,
    instability_factor,
    instability_profile,
    record_intervals,
)
from repro.config import default_config
from repro.stats import IntervalWindow, merge_records


def _steady(n=40, committed=1000, cycles=500, branches=100, memrefs=300):
    return [
        IntervalWindow(committed=committed, cycles=cycles,
                       branches=branches, memrefs=memrefs)
        for _ in range(n)
    ]


def _alternating(n=40):
    records = []
    for i in range(n):
        if (i // 4) % 2 == 0:
            records.append(IntervalWindow(1000, 500, 100, 300))
        else:
            records.append(IntervalWindow(1000, 900, 220, 150))
    return records


class TestInstabilityFactor:
    def test_steady_records_are_stable(self):
        assert instability_factor(_steady()) == 0.0

    def test_alternating_records_unstable(self):
        factor = instability_factor(_alternating())
        assert factor > 0.15

    def test_empty_records(self):
        assert instability_factor([]) == 0.0

    def test_single_change_counts_once(self):
        records = _steady(10) + [IntervalWindow(1000, 900, 250, 100)] + _steady(10)
        factor = instability_factor(records)
        # one change in, one change back out
        assert 0 < factor <= 2 / 21


class TestMergeAndProfile:
    def test_merge_records(self):
        merged = merge_records(_steady(8), 4)
        assert len(merged) == 2
        assert merged[0].committed == 4000
        assert merged[0].branches == 400

    def test_merge_validation(self):
        with pytest.raises(ValueError):
            merge_records(_steady(4), 0)

    def test_coarser_intervals_hide_fine_phases(self):
        """The core Table 4 effect: a program whose phases alternate every
        4 intervals looks unstable at fine grain and stable once the
        interval covers full phase pairs."""
        records = _alternating(64)
        profile = instability_profile(records, granularity=1000, factors_of=(1, 8))
        fine = profile.factors[1000]
        coarse = profile.factors[8000]
        assert coarse < fine

    def test_minimum_acceptable_interval(self):
        profile = InstabilityProfile(
            granularity=100,
            factors={100: 0.4, 200: 0.2, 400: 0.04, 800: 0.01},
        )
        assert profile.minimum_acceptable_interval(0.05) == 400

    def test_minimum_acceptable_none_when_all_unstable(self):
        profile = InstabilityProfile(granularity=100, factors={100: 0.5, 200: 0.3})
        assert profile.minimum_acceptable_interval(0.05) is None


class TestRecording:
    def test_record_intervals_from_simulation(self, parallel_trace):
        records = record_intervals(parallel_trace, default_config(8), granularity=500)
        assert len(records) >= len(parallel_trace) // 500 - 1
        assert all(r.committed == 500 for r in records)
        assert all(r.cycles > 0 for r in records)

    def test_recorded_metrics_plausible(self, parallel_trace):
        records = record_intervals(parallel_trace, default_config(8), granularity=500)
        total_branches = sum(r.branches for r in records)
        assert 0 < total_branches <= parallel_trace.branch_count
        assert 0 <= sum(r.distant_commits for r in records) <= sum(
            r.committed for r in records
        )
