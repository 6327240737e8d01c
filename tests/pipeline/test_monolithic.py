"""The monolithic baseline, run through the facade."""

from repro.api import simulate
from repro.config import monolithic_config


class TestMonolithic:
    def test_runs_to_completion(self, parallel_trace):
        stats = simulate(parallel_trace, topology="monolithic").stats
        assert stats.committed == len(parallel_trace)

    def test_no_communication(self, parallel_trace):
        stats = simulate(parallel_trace, topology="monolithic").stats
        assert stats.register_transfers == 0
        assert stats.memory_transfers == 0

    def test_single_cluster_machine(self, parallel_trace):
        stats = simulate(parallel_trace, topology="monolithic").stats
        assert stats.avg_active_clusters == 1.0

    def test_accepts_explicit_config(self, parallel_trace):
        stats = simulate(parallel_trace, processor=monolithic_config()).stats
        assert stats.ipc > 0

    def test_max_instructions(self, parallel_trace):
        stats = simulate(
            parallel_trace, topology="monolithic", max_instructions=500
        ).stats
        assert 500 <= stats.committed <= 520
