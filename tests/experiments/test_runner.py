"""Experiment runner: warmup exclusion, trace-length scaling."""

from repro.core import StaticController
from repro.experiments.runner import run_trace, scaled_length


class TestRunTrace:
    def test_result_fields(self, parallel_trace, config16):
        r = run_trace(parallel_trace, config16, StaticController(4),
                      warmup=1000, label="static-4")
        assert r.label == "static-4"
        assert r.ipc > 0
        # warmup stops on a commit-width boundary, so allow slack
        assert len(parallel_trace) - 1000 - 16 <= r.committed <= len(parallel_trace) - 1000
        assert r.cycles > 0
        assert r.avg_active_clusters <= 4.01

    def test_warmup_excluded_from_measurement(self, parallel_trace, config16):
        cold = run_trace(parallel_trace, config16, warmup=0)
        warm = run_trace(parallel_trace, config16, warmup=2000)
        # startup transients (cold caches, pipe fill) depress the cold IPC
        assert warm.ipc >= cold.ipc

    def test_warmup_clamped_for_short_traces(self, parallel_trace, config16):
        r = run_trace(parallel_trace, config16, warmup=10 ** 9)
        assert r.committed >= 900  # still measured something


class TestScaledLength:
    def test_scaled_length_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE_SCALE", "2")
        assert scaled_length(1000) == 2000
        monkeypatch.setenv("REPRO_TRACE_SCALE", "bogus")
        assert scaled_length(1000) == 1000
