"""Backend conformance suite.

One spec matrix, both backends, bit-identical records — the contract
that makes the backend a pure mechanism choice.  Plus the runner policy
both share: crash quarantine followed by a journal resume, and backend
lifecycle telemetry.
"""

import json
import os

import pytest

from repro.config import default_config
from repro.errors import ConfigError
from repro.experiments.sweep import (
    ControllerSpec,
    RunSpec,
    SweepConfig,
    SweepRunner,
)

from .injection import crashing

BACKEND_KINDS = ("serial", "process-pool")

LEN = 2_000

#: 20 specs: five benchmarks x four machine/policy points
MATRIX_BENCHES = ("gzip", "swim", "vpr", "crafty", "parser")
MATRIX_POINTS = (
    ("static-4", ControllerSpec.static(4)),
    ("static-16", ControllerSpec.static(16)),
    ("explore", ControllerSpec.explore()),
    ("finegrain", ControllerSpec.finegrain()),
)


def matrix_specs():
    return [
        RunSpec(
            profile=bench,
            trace_length=LEN,
            config=default_config(16),
            controller=controller,
            label=label,
        )
        for bench in MATRIX_BENCHES
        for label, controller in MATRIX_POINTS
    ]


def spec_for(profile, clusters=4):
    return RunSpec(
        profile=profile,
        trace_length=LEN,
        config=default_config(16),
        controller=ControllerSpec.static(clusters),
        label="backend",
    )


def snapshot(records):
    return [r.result.stats.snapshot() for r in records]


def config_for(kind, **kw):
    """A SweepConfig that forces one concrete backend."""
    if kind == "process-pool":
        kw.setdefault("jobs", 2)
    return SweepConfig(backend=kind, use_cache=kw.pop("use_cache", False), **kw)


class TestConformance:
    """The acceptance matrix: both backends, same bits."""

    @pytest.fixture(scope="class")
    def reference(self):
        """The serial oracle over the full 20-spec matrix."""
        return SweepRunner(config_for("serial")).run(matrix_specs())

    @pytest.mark.parametrize("kind", ["process-pool"])
    def test_matrix_bit_identical_to_serial(self, kind, reference):
        records = SweepRunner(config_for(kind)).run(matrix_specs())
        assert [r.status for r in records] == ["ok"] * len(records)
        assert snapshot(records) == snapshot(reference)
        assert [r.spec.label for r in records] == [
            r.spec.label for r in reference
        ]
        assert [r.result.stats for r in records] == [
            r.result.stats for r in reference
        ]

    @pytest.mark.parametrize("kind", BACKEND_KINDS)
    def test_cache_keys_identical(self, kind, tmp_path):
        """Identical specs must hash to identical cache entries no matter
        which backend executed them."""
        specs = [spec_for(p) for p in ("gzip", "swim")]
        cache_dir = tmp_path / kind
        SweepRunner(config_for(kind, use_cache=True, cache_dir=cache_dir)).run(
            specs
        )
        names = sorted(p.name for p in cache_dir.glob("*.pkl"))
        assert names == sorted(f"{s.cache_key()}.pkl" for s in specs)

    def test_cross_backend_cache_hits(self, tmp_path):
        """A cache populated by one backend satisfies another."""
        specs = [spec_for("gzip")]
        SweepRunner(config_for("serial", use_cache=True,
                               cache_dir=tmp_path)).run(specs)
        runner = SweepRunner(config_for("process-pool", use_cache=True,
                                        cache_dir=tmp_path))
        [record] = runner.run(specs)
        assert record.from_cache
        assert runner.metrics.cache_hits == 1

    @pytest.mark.parametrize("kind", BACKEND_KINDS)
    def test_metrics_report_backend(self, kind):
        runner = SweepRunner(config_for(kind))
        runner.run([spec_for("gzip")])
        info = runner.metrics.snapshot()["backend"]
        assert info["kind"] == kind
        assert info["workers"] >= 1


class TestBackendSelection:
    def test_unknown_backend_kind_rejected(self):
        with pytest.raises(ConfigError, match="unknown backend 'steam-powered'"):
            SweepConfig(backend="steam-powered")

    def test_env_backend_selection(self, monkeypatch):
        """No environment switch picks the backend: ``auto`` follows
        ``jobs`` alone (the retired ``REPRO_SWEEP_BACKEND`` is ignored)."""
        monkeypatch.setenv("REPRO_SWEEP_BACKEND", "serial")
        assert SweepConfig(jobs=8).resolved_backend() == "process-pool"
        assert SweepConfig(jobs=1).resolved_backend() == "serial"

    def test_batch_backend_retired(self):
        """The lockstep batch backend is gone: naming it fails up front,
        listing the backends that remain."""
        with pytest.raises(ConfigError, match="'serial', 'process-pool'"):
            SweepConfig(backend="batch")

    def test_backend_instance_escape_hatch(self):
        """The executor-object escape hatch is gone: ``backend`` takes a
        name, and an object with the old protocol's methods is rejected
        when the config is built."""

        class Executor:
            def submit(self, index, spec, solo=False): ...
            def drain(self): ...
            def cancel(self): ...

        with pytest.raises(ConfigError, match="unknown backend"):
            SweepConfig(backend=Executor())


class TestPoolCrashPolicy:
    """Runner policy on top of the pool's solo-probe crash attribution:
    quarantine a repeat crasher, then resume the sweep from its journal."""

    def test_repeat_crasher_quarantined_then_resume_completes(self, tmp_path):
        """A spec that kills every worker it touches is poisoned without
        sinking its neighbours; resumed with the plain specs, --resume
        re-attempts only the poisoned spec and converges to all-ok.  The
        journal recorded the crash spec itself; loading it in the main
        process gives back the plain spec."""
        journal_path = tmp_path / "sweep.jsonl"
        runner = SweepRunner(
            config_for("process-pool", retries=0, journal=journal_path)
        )
        records = runner.run(
            [spec_for("gzip"), crashing(spec_for("swim")), spec_for("vpr")]
        )
        by_profile = {r.spec.profile: r for r in records}
        assert by_profile["swim"].status == "poisoned"
        assert "quarantined" in by_profile["swim"].error
        assert by_profile["gzip"].ok and by_profile["vpr"].ok
        assert runner.metrics.poisoned == 1

        resumed = SweepRunner(
            config_for("process-pool", retries=0, journal=journal_path,
                       resume=True)
        )
        records = resumed.run([spec_for(p) for p in ("gzip", "swim", "vpr")])
        assert [r.status for r in records] == ["ok", "ok", "ok"]
        assert resumed.metrics.journal_skips == 2  # the two ok neighbours

        reference = SweepRunner(config_for("serial")).run(
            [spec_for(p) for p in ("gzip", "swim", "vpr")]
        )
        assert snapshot(records) == snapshot(reference)


class TestBackendObservability:
    def test_lifecycle_events_exported(self, tmp_path):
        runner = SweepRunner(config_for("process-pool", trace_dir=tmp_path))
        runner.run([spec_for(p) for p in ("gzip", "swim")])
        kinds = [e["event"] for e in runner.metrics.snapshot()["backend"]["events"]]
        assert kinds[0] == "backend_start"
        assert kinds[-1] == "backend_close"

        metrics = json.loads((tmp_path / "sweep_metrics.json").read_text())
        exported = {e["event"] for e in metrics["backend"]["events"]}
        trace = json.loads((tmp_path / "sweep_trace.json").read_text())
        names = {e.get("name") for e in trace["traceEvents"]}
        for event in ("backend_start", "backend_close"):
            assert event in exported
            assert event in names

    def test_serial_backend_stats_shape(self):
        runner = SweepRunner(config_for("serial"))
        runner.run([spec_for("gzip")])
        info = runner.metrics.snapshot()["backend"]
        assert info["workers"] == 1
        assert info["respawns"] == 0
        kinds = [e["event"] for e in info["events"]]
        assert kinds == ["backend_start", "backend_close"]


@pytest.mark.slow
@pytest.mark.skipif(
    (os.cpu_count() or 1) < 4,
    reason="scaling acceptance needs >= 4 cores",
)
class TestScaling:
    def test_pool_4x_beats_serial_3x(self):
        """A 200-spec synthetic sweep on a 4-worker process pool finishes
        >= 3x faster than the serial backend, bit-identical."""
        import time

        specs = [
            RunSpec(
                profile=MATRIX_BENCHES[i % len(MATRIX_BENCHES)],
                trace_length=1_000,
                config=default_config(16),
                controller=ControllerSpec.static(4),
                label=f"scale-{i}",
            )
            for i in range(200)
        ]
        t0 = time.perf_counter()
        serial = SweepRunner(config_for("serial")).run(specs)
        serial_s = time.perf_counter() - t0

        t0 = time.perf_counter()
        pooled = SweepRunner(config_for("process-pool", jobs=4)).run(specs)
        pooled_s = time.perf_counter() - t0

        assert snapshot(pooled) == snapshot(serial)
        assert pooled_s * 3 <= serial_s, (
            f"process-pool {pooled_s:.1f}s vs serial {serial_s:.1f}s"
        )
