"""FaultManager end-to-end: counters, idempotency, degradation accounting."""

import dataclasses

import pytest

from repro import ClusteredProcessor, simulate
from repro.errors import ConfigError
from repro.resilience import FaultEvent, FaultSchedule


def run_faulted(trace, config, schedule, controller=None):
    processor = ClusteredProcessor(
        trace, config, controller, fault_schedule=schedule
    )
    processor.run()
    return processor


class TestCounters:
    def test_each_kind_counts_once(self, gzip_trace, config16):
        schedule = FaultSchedule((
            FaultEvent(cycle=500, kind="cluster_kill", cluster=5),
            FaultEvent(cycle=700, kind="link_degrade", src=1, dst=2),
            FaultEvent(cycle=800, kind="fu_disable", cluster=4,
                       unit="int_alu"),
        ))
        stats = run_faulted(gzip_trace, config16, schedule).stats
        assert stats.faults_injected == 3
        assert stats.cluster_kills == 1
        assert stats.links_severed == 0
        assert stats.links_degraded == 1
        assert stats.fu_faults == 1
        assert stats.degraded_cycles > 0
        assert stats.recovery_cycles >= 0

    def test_degraded_from_first_fault_to_the_end(self, gzip_trace, config16):
        # faults are permanent: one interval, opened by the first fault
        schedule = FaultSchedule((
            FaultEvent(cycle=500, kind="fu_disable", cluster=4,
                       unit="int_alu"),
            FaultEvent(cycle=900, kind="cluster_kill", cluster=5),
        ))
        stats = run_faulted(gzip_trace, config16, schedule).stats
        assert stats.degraded_cycles == stats.cycles - 500

    def test_duplicate_events_are_idempotent(self, gzip_trace, config16):
        schedule = FaultSchedule((
            FaultEvent(cycle=500, kind="cluster_kill", cluster=5),
            FaultEvent(cycle=600, kind="cluster_kill", cluster=5),
            FaultEvent(cycle=700, kind="fu_disable", cluster=4,
                       unit="fp_alu"),
            FaultEvent(cycle=800, kind="fu_disable", cluster=4,
                       unit="fp_alu"),
        ))
        stats = run_faulted(gzip_trace, config16, schedule).stats
        # the second kill and second disable hit already-faulted hardware:
        # applied as no-ops, not double-counted
        assert stats.faults_injected == 2
        assert stats.cluster_kills == 1
        assert stats.fu_faults == 1


class TestValidation:
    def test_bad_link_fails_at_construction(self, gzip_trace, config16):
        # clusters 1 and 5 are not ring neighbours
        schedule = FaultSchedule((
            FaultEvent(cycle=500, kind="link_degrade", src=1, dst=5),
        ))
        with pytest.raises(ConfigError, match="physical neighbours"):
            ClusteredProcessor(gzip_trace, config16, None,
                               fault_schedule=schedule)

    def test_home_kill_fails_at_construction(self, gzip_trace, config16):
        schedule = FaultSchedule((
            FaultEvent(cycle=500, kind="cluster_kill",
                       cluster=config16.home_cluster),
        ))
        with pytest.raises(ConfigError, match="home cluster"):
            ClusteredProcessor(gzip_trace, config16, None,
                               fault_schedule=schedule)


class TestDegradationIsGraceful:
    def test_killed_cluster_stops_committing_machine_does_not(
        self, gzip_trace, config16
    ):
        schedule = FaultSchedule((
            FaultEvent(cycle=500, kind="cluster_kill", cluster=5),
        ))
        healthy = simulate(gzip_trace, topology="ring")
        degraded = simulate(gzip_trace, topology="ring", faults=schedule)
        assert degraded.stats.committed == healthy.stats.committed
        assert degraded.cycles >= healthy.cycles
        assert degraded.ipc > 0

    def test_fu_fault_costs_less_than_cluster_kill(self, gzip_trace, config16):
        kill = FaultSchedule((
            FaultEvent(cycle=500, kind="cluster_kill", cluster=5),
        ))
        fu = FaultSchedule((
            FaultEvent(cycle=500, kind="fu_disable", cluster=5,
                       unit="int_mul"),
        ))
        killed = simulate(gzip_trace, topology="ring", faults=kill)
        nicked = simulate(gzip_trace, topology="ring", faults=fu)
        assert nicked.cycles <= killed.cycles

    def test_rerun_is_bit_identical(self, gzip_trace, config16):
        schedule = FaultSchedule((
            FaultEvent(cycle=500, kind="cluster_kill", cluster=5),
            FaultEvent(cycle=900, kind="link_degrade", src=2, dst=3),
        ))
        first = run_faulted(gzip_trace, config16, schedule).stats
        second = run_faulted(gzip_trace, config16, schedule).stats
        assert dataclasses.asdict(first) == dataclasses.asdict(second)
