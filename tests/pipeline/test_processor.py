"""End-to-end pipeline behaviour."""

import pytest

from repro.config import decentralized_config, default_config, monolithic_config
from repro.core import StaticController
from repro.errors import SimulationError
from repro.pipeline.processor import ClusteredProcessor
from repro.workloads.instruction import Instr, OpClass, Trace


class TestCompletion:
    def test_all_instructions_commit(self, parallel_trace, config16):
        stats = ClusteredProcessor(parallel_trace, config16).run()
        assert stats.committed == len(parallel_trace)

    def test_serial_trace_completes(self, serial_trace, config16):
        stats = ClusteredProcessor(serial_trace, config16).run()
        assert stats.committed == len(serial_trace)

    def test_decentralized_completes(self, parallel_trace):
        stats = ClusteredProcessor(parallel_trace, decentralized_config(16)).run()
        assert stats.committed == len(parallel_trace)

    def test_max_instructions_honoured(self, parallel_trace, config16):
        stats = ClusteredProcessor(parallel_trace, config16).run(1000)
        assert 1000 <= stats.committed <= 1000 + 16  # commit-width slack

    def test_empty_iterations_guard(self):
        trace = Trace("tiny", [Instr(0, 0, OpClass.INT_ALU)])
        stats = ClusteredProcessor(trace, default_config(2)).run()
        assert stats.committed == 1


class TestDeterminism:
    def test_repeated_runs_identical(self, serial_trace, config16):
        a = ClusteredProcessor(serial_trace, config16).run()
        b = ClusteredProcessor(serial_trace, config16).run()
        assert a.cycles == b.cycles
        assert a.committed == b.committed
        assert a.mispredicts == b.mispredicts
        assert a.l1_hits == b.l1_hits


class TestOrderings:
    def test_monolithic_beats_clustered(self, parallel_trace):
        """Zero-communication monolithic is an upper bound (same window)."""
        mono = ClusteredProcessor(parallel_trace, monolithic_config()).run()
        clustered = ClusteredProcessor(parallel_trace, default_config(16)).run()
        assert mono.ipc > clustered.ipc

    def test_parallel_code_scales_with_clusters(self, parallel_trace, config16):
        few = ClusteredProcessor(parallel_trace, config16, StaticController(2)).run()
        many = ClusteredProcessor(parallel_trace, config16, StaticController(16)).run()
        assert many.ipc > few.ipc * 1.1

    def test_serial_code_prefers_few_clusters(self, serial_trace, config16):
        few = ClusteredProcessor(serial_trace, config16, StaticController(4)).run()
        many = ClusteredProcessor(serial_trace, config16, StaticController(16)).run()
        assert few.ipc >= many.ipc * 0.95  # at best marginal gains from 16


class TestAccounting:
    def test_cycle_and_commit_counters(self, parallel_trace, config16):
        stats = ClusteredProcessor(parallel_trace, config16).run()
        assert stats.cycles > 0
        assert stats.dispatched == stats.committed
        assert stats.issued == stats.committed

    def test_branch_and_memref_counts_match_trace(self, parallel_trace, config16):
        stats = ClusteredProcessor(parallel_trace, config16).run()
        assert stats.branches == parallel_trace.branch_count
        assert stats.memrefs == parallel_trace.memref_count

    def test_distant_commits_present_for_parallel_code(self, parallel_trace, config16):
        stats = ClusteredProcessor(parallel_trace, config16).run()
        assert stats.distant_commits > 0

    def test_distant_commits_rare_for_serial_code(self, serial_trace, parallel_trace, config16):
        s = ClusteredProcessor(serial_trace, config16).run()
        p = ClusteredProcessor(parallel_trace, config16).run()
        assert s.distant_commits / len(serial_trace) < p.distant_commits / len(parallel_trace)

    def test_cluster_cycle_product(self, parallel_trace, config16):
        stats = ClusteredProcessor(parallel_trace, config16, StaticController(4)).run()
        assert stats.avg_active_clusters <= 4.01


class TestReconfiguration:
    def test_set_active_clusters_clamped(self, parallel_trace, config16):
        proc = ClusteredProcessor(parallel_trace, config16)
        proc.set_active_clusters(99)
        assert proc.active_clusters == 16
        proc.set_active_clusters(0)
        assert proc.active_clusters == 1

    def test_disabled_clusters_drain(self, parallel_trace, config16):
        proc = ClusteredProcessor(parallel_trace, config16)
        for _ in range(300):
            proc.advance(until_cycle=proc.cycle + 1)
        proc.set_active_clusters(2)
        proc.run()
        assert proc.stats.committed == len(parallel_trace)
        # nothing left anywhere, including disabled clusters
        assert all(c.reset_for_drain_check() for c in proc.clusters)

    def test_static_controller_restricts_dispatch(self, parallel_trace, config16):
        proc = ClusteredProcessor(parallel_trace, config16, StaticController(4))
        proc.run()
        # clusters 4..15 never received instructions
        assert all(c.reset_for_drain_check() for c in proc.clusters[4:])

    def test_same_count_is_noop(self, parallel_trace, config16):
        proc = ClusteredProcessor(parallel_trace, config16)
        proc.set_active_clusters(16)
        assert proc.stats.reconfigurations == 0

    def test_decentralized_reconfig_stalls_dispatch(self, parallel_trace):
        proc = ClusteredProcessor(parallel_trace, decentralized_config(16))
        for _ in range(500):
            proc.advance(until_cycle=proc.cycle + 1)
        before = proc.cycle
        proc.set_active_clusters(4)
        if proc.stats.flush_writebacks:
            assert proc._dispatch_stalled_until > before
        proc.run()
        assert proc.stats.committed == len(parallel_trace)


class TestControllerHooks:
    def test_on_commit_called_per_instruction(self, parallel_trace, config16):
        calls = []

        class Probe(StaticController):
            def on_commit(self, instr, cycle, distant):
                calls.append(instr.index)

        ClusteredProcessor(parallel_trace, config16, Probe(8)).run()
        assert len(calls) == len(parallel_trace)
        assert calls == sorted(calls)  # in-order commit

    def test_on_dispatch_opt_in(self, parallel_trace, config16):
        seen = []

        class Probe(StaticController):
            needs_dispatch_events = True

            def on_dispatch(self, instr, cycle):
                seen.append(instr.index)

        ClusteredProcessor(parallel_trace, config16, Probe(8)).run()
        assert len(seen) == len(parallel_trace)


class TestWedgeDetection:
    def test_wedged_pipeline_raises(self, config16):
        """A processor that can never finish must raise, not hang."""
        trace = Trace("t", [Instr(0, 0, OpClass.INT_ALU)])
        proc = ClusteredProcessor(trace, config16)
        proc.fetch_unit.pending_mispredict = 12345  # never resolved
        with pytest.raises(SimulationError):
            proc.run()
