"""Sampled runtime invariant checking (repro.pipeline.invariants).

Two burdens of proof: a healthy simulation passes every check (and the
checks actually run), and a deliberately corrupted one fails loudly with
cycle/instruction context — never commits garbage statistics silently.
"""

import dataclasses

import pytest

from repro.config import default_config
from repro.core import StaticController
from repro.errors import SimulationError
from repro.pipeline.invariants import invariants_enabled
from repro.pipeline.processor import ClusteredProcessor
from repro.workloads.instruction import Instr


def config_with_checks(enabled=True, period=64):
    return dataclasses.replace(
        default_config(16), check_invariants=enabled,
        invariant_sample_period=period,
    )


def processor_for(trace, enabled=True, period=64):
    return ClusteredProcessor(
        trace, config_with_checks(enabled, period), StaticController(4)
    )


def run_cycles(proc, cycles):
    for _ in range(cycles):
        proc.step()


class TestEnableToggle:
    def test_config_flag_wins_over_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_CHECK_INVARIANTS", "1")
        assert not invariants_enabled(config_with_checks(False))
        monkeypatch.setenv("REPRO_CHECK_INVARIANTS", "0")
        assert invariants_enabled(config_with_checks(True))

    def test_env_decides_when_config_is_unset(self, monkeypatch):
        config = default_config(16)
        assert config.check_invariants is None
        for value, expected in [("1", True), ("on", True), ("", False),
                                ("0", False), ("off", False), ("no", False)]:
            monkeypatch.setenv("REPRO_CHECK_INVARIANTS", value)
            assert invariants_enabled(config) is expected

    def test_disabled_processor_has_no_checker(self, gzip_trace):
        assert processor_for(gzip_trace, enabled=False).invariants is None

    def test_toggle_does_not_change_cache_keys(self):
        # check_invariants rides on the config but is excluded from repr,
        # so flipping it must not invalidate the on-disk result cache
        assert repr(config_with_checks(True)) == repr(config_with_checks(False))


class TestCleanRunPasses:
    def test_full_run_checks_and_passes(self, gzip_trace):
        proc = processor_for(gzip_trace, period=16)
        proc.run()
        assert proc.invariants.checks_run > 1  # sampled + the final check
        assert proc.stats.committed == len(gzip_trace)

    def test_phased_trace_with_controller_passes(self, phased_trace):
        config = config_with_checks(period=32)
        from repro.core import ExploreConfig, IntervalExploreController

        proc = ClusteredProcessor(
            phased_trace, config, IntervalExploreController(ExploreConfig.scaled())
        )
        proc.run()
        assert proc.invariants.checks_run > 1

    def test_every_multiprog_thread_gets_the_final_check(self, monkeypatch):
        """A co-scheduled thread's last check runs once it has finished,
        at its final cycle, as a single-thread run's does."""
        from repro.multiprog import MultiProgSpec, run_multiprog
        from repro.pipeline.invariants import INVARIANTS_ENV, InvariantChecker

        monkeypatch.setenv(INVARIANTS_ENV, "1")
        last_check = {}
        real_check = InvariantChecker.check

        def check(checker):
            p = checker.processor
            last_check[p.trace.name] = (p.cycle, p.finished)
            real_check(checker)

        monkeypatch.setattr(InvariantChecker, "check", check)
        result = run_multiprog(MultiProgSpec(
            ("gzip", "swim"), trace_length=2_000, topology="grid",
            arbiter="round-robin",
        ))
        for thread in result.threads:
            assert last_check[thread.workload] == (thread.cycles, True)

    def test_checking_is_read_only(self, gzip_trace):
        """Bit-identical stats with checking on and off — the determinism
        guarantee that lets the test suite enable checks globally."""
        checked = processor_for(gzip_trace, enabled=True, period=8)
        unchecked = processor_for(gzip_trace, enabled=False)
        checked.run()
        unchecked.run()
        assert checked.stats.snapshot() == unchecked.stats.snapshot()


class TestCorruptionIsCaught:
    """Tamper with live state mid-run; the next check must raise with
    cycle context, naming the subsystem."""

    def mid_run(self, trace):
        proc = processor_for(trace)
        run_cycles(proc, 200)  # well into steady state, pipeline full
        assert len(proc.rob) > 0
        return proc

    def test_register_leak(self, gzip_trace):
        proc = self.mid_run(gzip_trace)
        proc.clusters[0]._int_regs += 3  # leak three physical registers
        with pytest.raises(SimulationError, match="register leak"):
            proc.invariants.check()

    def test_regfile_over_capacity(self, gzip_trace):
        proc = self.mid_run(gzip_trace)
        cluster = proc.clusters[0]
        cluster._int_regs = cluster.config.regfile_size + 5
        with pytest.raises(SimulationError, match="occupancy"):
            proc.invariants.check()

    def test_issue_queue_counter_drift(self, gzip_trace):
        proc = self.mid_run(gzip_trace)
        cluster = next(c for c in proc.clusters if c.iq_occupancy > 0)
        # drop a queued record without telling the occupancy counters
        entry = next(r for r in cluster.issue_queue if r is not None)
        cluster.issue_queue.remove(entry)
        with pytest.raises(SimulationError, match="issue-queue counter"):
            proc.invariants.check()

    def test_rob_commit_order_violation(self, gzip_trace):
        proc = self.mid_run(gzip_trace)
        entries = list(proc.rob)
        assert len(entries) >= 2
        entries[0].dispatch_cycle = entries[-1].dispatch_cycle + 100
        with pytest.raises(SimulationError, match="commit order"):
            proc.invariants.check()

    @pytest.mark.parametrize("case", ["repeat", "negative"])
    def test_rob_trace_index_not_increasing(self, gzip_trace, case):
        """Dispatch cycles stay in order; only a trace index goes wrong.
        The entry gets a fresh ``Instr``, so the shared trace is untouched."""
        proc = self.mid_run(gzip_trace)
        entries = list(proc.rob)
        assert len(entries) >= 2
        if case == "repeat":
            victim, index = entries[1], entries[0].instr.index
        else:
            victim, index = entries[0], -1
        victim.instr = Instr(index, victim.instr.pc, victim.instr.op)
        with pytest.raises(SimulationError, match="commit order"):
            proc.invariants.check()

    def test_lost_network_message(self, gzip_trace):
        proc = self.mid_run(gzip_trace)
        run_cycles(proc, 200)  # ensure some transfers happened
        proc.network.messages_sent += 1  # a message the stats never saw
        with pytest.raises(SimulationError, match="message conservation"):
            proc.invariants.check()

    def test_rate_inversion(self, gzip_trace):
        proc = self.mid_run(gzip_trace)
        proc.stats.committed = proc.stats.dispatched + 10
        with pytest.raises(SimulationError, match="rates"):
            proc.invariants.check()

    def test_failure_message_carries_context(self, gzip_trace):
        proc = self.mid_run(gzip_trace)
        proc.clusters[0]._int_regs += 1
        with pytest.raises(SimulationError) as excinfo:
            proc.invariants.check()
        message = str(excinfo.value)
        assert f"cycle {proc.cycle}" in message
        assert proc.trace.name in message

    def test_sampled_check_fires_during_run(self, gzip_trace):
        """Corruption injected mid-run is caught by the *sampled* check in
        step(), not only by a direct call."""
        proc = processor_for(gzip_trace, period=16)
        run_cycles(proc, 200)
        proc.clusters[0]._int_regs += 3
        with pytest.raises(SimulationError, match="register leak"):
            run_cycles(proc, 64)


class TestLivenessAwareRates:
    """Fault-killed clusters must not false-positive the rate checks, but
    a drifted live-cluster count must still fail."""

    def faulted(self, trace, schedule):
        from repro.pipeline.processor import ClusteredProcessor

        return ClusteredProcessor(
            trace, config_with_checks(period=16), None,
            fault_schedule=schedule,
        )

    def test_killed_cluster_passes_checks(self, gzip_trace):
        from repro.resilience import FaultEvent, FaultSchedule

        proc = self.faulted(gzip_trace, FaultSchedule((
            FaultEvent(cycle=300, kind="cluster_kill", cluster=5),
        )))
        proc.run()  # every sampled check ran against the degraded machine
        assert proc.invariants.checks_run > 1
        assert proc.stats.cluster_kills == 1

    def test_liveness_drift_is_caught(self, gzip_trace):
        from repro.resilience import FaultEvent, FaultSchedule

        proc = self.faulted(gzip_trace, FaultSchedule((
            FaultEvent(cycle=100, kind="cluster_kill", cluster=5),
        )))
        run_cycles(proc, 300)
        # resurrect the cluster behind the processor's back: the effective
        # count no longer matches the live scan
        proc.clusters[5].live = True
        with pytest.raises(SimulationError, match="fault remap drifted"):
            proc.invariants.check()


class TestSamplingPeriod:
    def test_longer_period_means_fewer_checks(self, gzip_trace):
        fine = processor_for(gzip_trace, period=8)
        coarse = processor_for(gzip_trace, period=512)
        fine.run()
        coarse.run()
        assert fine.invariants.checks_run > coarse.invariants.checks_run >= 1

    def test_checker_period_floor(self, gzip_trace):
        proc = ClusteredProcessor(
            gzip_trace, config_with_checks(period=0), StaticController(4)
        )
        assert proc.invariants.period == 1
