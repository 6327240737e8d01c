"""SweepRunner: parallel fan-out, result caching, failure handling.

The hard requirement under test: a parallel sweep is *bit-identical* to
the serial loop it replaced — same SimStats, same IPC — and the cache
returns exactly what the simulation would have produced.
"""

import dataclasses
import gc
import os
import pathlib
import pickle
import subprocess
import sys
import time
import weakref
from unittest import mock

import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

import repro
from repro.api import sweep
from repro.config import decentralized_config, default_config
from repro.core import ExploreConfig, NoExploreConfig, StaticController
from repro.experiments import sweep as sweep_module
from repro.experiments.runner import run_trace
from repro.experiments.sweep import (
    CACHE_KEY_EXEMPT,
    ControllerSpec,
    ResultCache,
    RunRecord,
    RunSpec,
    SweepConfig,
    SweepRunner,
    default_jobs,
    execute_spec,
    multiprog_run_spec,
    require_ok,
)
from repro.multiprog import MultiProgSpec
from repro.pipeline.processor import ClusteredProcessor
from repro.resilience import FaultEvent, FaultSchedule
from repro.stats import SimStats
from repro.workloads.generator import generate_trace
from repro.workloads.profiles import get_profile

from ..specs import MULTIPROG, RUN_SPEC

LEN = 3_000
SRC = str(pathlib.Path(repro.__file__).resolve().parents[1])


def spec_for(profile="gzip", scheme=None, length=LEN, **kw):
    return RunSpec(
        profile=profile,
        trace_length=length,
        config=default_config(16),
        controller=scheme or ControllerSpec.static(4),
        label="test",
        **kw,
    )


class TestControllerSpec:
    def test_every_kind_builds(self):
        specs = [
            ControllerSpec.none(),
            ControllerSpec.static(4),
            ControllerSpec.explore(),
            ControllerSpec.no_explore(),
            ControllerSpec.finegrain(),
            ControllerSpec.subroutine(),
        ]
        built = [s.build() for s in specs]
        assert built[0] is None
        assert isinstance(built[1], StaticController)
        # a spec is a factory: every build is a fresh instance
        assert specs[2].build() is not specs[2].build()

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            ControllerSpec("banana")

    def test_static_needs_clusters(self):
        with pytest.raises(ValueError):
            ControllerSpec("static")

    def test_spec_is_hashable_and_picklable(self):
        spec = ControllerSpec.explore(ExploreConfig.scaled())
        assert hash(spec) == hash(pickle.loads(pickle.dumps(spec)))


#: one alternative value per keyed RunSpec field; each differs from the
#: populated spec's value, so each change must move the cache key
KEY_CHANGES = {
    "profile": "swim",
    "trace_length": RUN_SPEC.trace_length + 1,
    "seed": RUN_SPEC.seed + 1,
    "config": decentralized_config(16),
    "controller": ControllerSpec.no_explore(),
    "warmup": RUN_SPEC.warmup + 1,
    "steering": ("first-fit",),
    "record_granularity": None,
    "max_instructions": None,
    "multiprog": dataclasses.replace(MULTIPROG, faults=None),
    "faults": None,
}

_CHILD_KEY = "import pickle, sys; print(pickle.load(sys.stdin.buffer).cache_key())"


class TestCacheKey:
    def test_table_covers_every_keyed_field(self):
        keyed = {f.name for f in dataclasses.fields(RunSpec)}
        assert set(KEY_CHANGES) == keyed - set(CACHE_KEY_EXEMPT["RunSpec"])

    @pytest.mark.parametrize("name", sorted(KEY_CHANGES))
    def test_any_input_changes_the_key(self, name):
        changed = dataclasses.replace(RUN_SPEC, **{name: KEY_CHANGES[name]})
        assert changed.cache_key() != RUN_SPEC.cache_key()

    def test_controller_parameters_change_the_key(self):
        """The table's controller row changes the kind; the key must also
        see a same-kind controller's cluster count and algorithm constants."""
        static4, static8 = (
            dataclasses.replace(RUN_SPEC, controller=ControllerSpec.static(n))
            for n in (4, 8)
        )
        assert static4.cache_key() != static8.cache_key()
        paper = dataclasses.replace(
            RUN_SPEC, controller=ControllerSpec.explore(ExploreConfig())
        )
        assert paper.cache_key() != RUN_SPEC.cache_key()

    def test_label_does_not_change_the_key(self):
        relabelled = dataclasses.replace(
            RUN_SPEC,
            label="other-exhibit",
            multiprog=dataclasses.replace(MULTIPROG, label="other-mix"),
        )
        assert relabelled.cache_key() == RUN_SPEC.cache_key()

    def test_sweep_config_never_reaches_the_key(self):
        names = {f.name for f in dataclasses.fields(SweepConfig)}
        assert names == set(CACHE_KEY_EXEMPT["SweepConfig"])

    def test_stable_across_processes(self):
        """Two fresh interpreters with different hash seeds compute the
        parent's key: no memory address or set order reaches the key."""
        for hashseed in ("1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=hashseed)
            env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
            proc = subprocess.run(
                [sys.executable, "-c", _CHILD_KEY],
                input=pickle.dumps(RUN_SPEC),
                env=env,
                capture_output=True,
                check=True,
                timeout=120,
            )
            assert proc.stdout.decode().strip() == RUN_SPEC.cache_key(), hashseed


class TestSerialRunner:
    def test_results_in_spec_order(self):
        specs = [
            spec_for("swim", ControllerSpec.static(16)),
            spec_for("gzip", ControllerSpec.static(4)),
        ]
        records = SweepRunner(SweepConfig(jobs=1, use_cache=False)).run(specs)
        assert [r.spec.profile for r in records] == ["swim", "gzip"]
        assert all(r.ok and not r.from_cache for r in records)

    def test_matches_direct_run_trace(self):
        """SweepRunner(SweepConfig(jobs=1)) == the plain serial path, bit for bit."""
        direct = run_trace(
            generate_trace(get_profile("gzip"), LEN, seed=7),
            default_config(16),
            StaticController(4),
            label="test",
        )
        [record] = SweepRunner(SweepConfig(jobs=1, use_cache=False)).run([spec_for("gzip")])
        assert record.result.ipc == direct.ipc
        assert record.result.committed == direct.committed
        assert record.result.stats.snapshot() == direct.stats.snapshot()

    def test_metrics_populated(self):
        runner = SweepRunner(SweepConfig(jobs=1, use_cache=False))
        runner.run([spec_for(), spec_for("swim")])
        m = runner.metrics
        assert m.submitted == m.completed == 2
        assert m.failed == 0 and m.cache_hits == 0
        assert len(m.latencies) == 2
        assert m.p95_seconds >= m.p50_seconds > 0
        assert 0 < m.busy_seconds <= m.wall_seconds  # jobs=1: no overlap
        assert m.snapshot()["jobs"] == 1

    def test_serial_sweep_reports_one_worker(self, monkeypatch):
        """A serial sweep runs every spec in one process, whatever the job
        count says, so its utilization is measured against one worker."""
        monkeypatch.setenv("REPRO_JOBS", "4")
        runner = SweepRunner(SweepConfig(backend="serial", use_cache=False))
        runner.run([spec_for(), spec_for("swim")])
        m = runner.metrics
        assert m.jobs == 1
        assert m.worker_utilization == pytest.approx(m.busy_seconds / m.wall_seconds)
        assert m.worker_utilization > 0.5

    def test_serial_sweep_never_loads_the_process_pool(self):
        """The serial path imports neither ``concurrent.futures.process``
        nor ``multiprocessing``, so it pays none of their import time."""
        code = (
            "import sys\n"
            "from repro.api import sweep\n"
            "from repro.experiments.sweep import RunSpec\n"
            "sweep([RunSpec(profile='gzip', trace_length=1_000)],"
            " backend='serial', cache=False).require_ok()\n"
            "print(sorted(m for m in ('concurrent.futures.process',"
            " 'multiprocessing') if m in sys.modules))\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=SRC),
            capture_output=True, check=True, timeout=120,
        )
        assert proc.stdout.decode().strip() == "[]"

    def test_progress_hook(self):
        events = []
        runner = SweepRunner(SweepConfig(jobs=1, use_cache=False), progress=events.append)
        runner.run([spec_for()])
        assert len(events) == 1
        assert events[0]["status"] == "ok"
        assert events[0]["completed"] == 1 and events[0]["total"] == 1


class TestFailureHandling:
    def test_structured_failure_instead_of_crash(self):
        bad = spec_for(profile="not-a-benchmark")
        [record] = SweepRunner(SweepConfig(jobs=1, use_cache=False, retries=0)).run([bad])
        assert record.status == "failed"
        assert "not-a-benchmark" in record.error
        assert record.result is None

    def test_retry_count(self):
        runner = SweepRunner(SweepConfig(jobs=1, use_cache=False, retries=2))
        [record] = runner.run([spec_for(profile="not-a-benchmark")])
        assert record.attempts == 3
        assert runner.metrics.retries == 2
        assert runner.metrics.failed == 1

    def test_failures_do_not_stop_the_sweep(self):
        records = SweepRunner(SweepConfig(jobs=1, use_cache=False, retries=0)).run(
            [spec_for(), spec_for(profile="not-a-benchmark"), spec_for("swim")]
        )
        assert [r.status for r in records] == ["ok", "failed", "ok"]

    def test_require_ok_raises_with_details(self):
        records = SweepRunner(SweepConfig(jobs=1, use_cache=False, retries=0)).run(
            [spec_for(profile="not-a-benchmark")]
        )
        with pytest.raises(RuntimeError, match="not-a-benchmark"):
            require_ok(records)

    def test_timeout_is_a_structured_record(self):
        # a 200k-instruction simulation cannot finish in 50ms
        slow = spec_for(length=200_000)
        runner = SweepRunner(SweepConfig(jobs=1, use_cache=False, retries=0, timeout=0.05))
        [record] = runner.run([slow])
        assert record.status == "timeout"
        assert "timeout" in record.error
        assert runner.metrics.timeouts == 1

    def test_execute_spec_never_raises(self):
        record = execute_spec(spec_for(profile="nope"))
        assert isinstance(record, RunRecord) and record.status == "failed"


class TestDeadline:
    """``timeout`` is a wall-clock deadline the run checks between
    cycle-bounded chunks: a run that meets it is bit-identical to an
    unbounded one."""

    @pytest.mark.parametrize(
        "spec",
        [
            spec_for("swim", ControllerSpec.explore(), length=6_000),
            dataclasses.replace(spec_for("vpr"), record_granularity=100),
            multiprog_run_spec(
                MultiProgSpec(workloads=("gzip", "swim"), trace_length=2_000,
                              epoch_cycles=400)
            ),
        ],
        ids=["single-thread", "record-granularity", "multiprog"],
    )
    def test_generous_timeout_changes_nothing(self, spec):
        unbounded = execute_spec(spec)
        bounded = execute_spec(spec, timeout=600)
        assert unbounded.ok and bounded.ok
        assert bounded.result == unbounded.result
        assert bounded.records == unbounded.records
        assert bounded.multiprog_result == unbounded.multiprog_result

    def test_each_leg_is_one_advance_without_a_deadline(self):
        """No deadline: warmup and the measured run are one ``advance``
        call each, as an unchunked run; a deadline splits them."""
        trace = generate_trace(get_profile("gzip"), LEN, seed=7)
        calls = []
        real = ClusteredProcessor.advance

        def counted(self, *args, **kwargs):
            calls.append(kwargs.get("until_cycle"))
            return real(self, *args, **kwargs)

        with mock.patch.object(ClusteredProcessor, "advance", counted):
            plain = run_trace(trace, default_config(16), warmup=500)
            assert calls == [None, None]
            calls.clear()
            chunked = run_trace(trace, default_config(16), warmup=500,
                                deadline=time.monotonic() + 600)
        assert len(calls) > 2 and None not in calls
        assert chunked.stats == plain.stats

    def test_multiprog_run_times_out(self):
        spec = multiprog_run_spec(
            MultiProgSpec(workloads=("gzip", "swim"), trace_length=60_000)
        )
        record = execute_spec(spec, timeout=0.05)
        assert record.status == "timeout", record.error


class TestFinishedRunsAreFreed:
    """A finished run, and one that ends in a raise, is freed by reference
    counting: with the cyclic collector off, no processor outlives the
    :func:`execute_spec` call."""

    @pytest.mark.parametrize(
        "spec,timeout,status",
        [
            (
                RunSpec(
                    profile="gzip",
                    trace_length=LEN,
                    config=dataclasses.replace(
                        decentralized_config(16), check_invariants=True
                    ),
                    controller=ControllerSpec.explore(),
                    warmup=300,
                    faults=FaultSchedule((
                        FaultEvent(cycle=300, kind="cluster_kill", cluster=3),
                        FaultEvent(cycle=900, kind="cluster_restore", cluster=3),
                    )),
                ),
                None,
                "ok",
            ),
            (
                multiprog_run_spec(
                    MultiProgSpec(workloads=("gzip", "swim"), trace_length=1_500)
                ),
                None,
                "ok",
            ),
            # ends in a raise: the run's owner releases it in a finally
            (spec_for("swim", ControllerSpec.explore(), length=30_000), 0.5, "timeout"),
        ],
        ids=["decentralized-explore-faults", "multiprog", "timeout"],
    )
    def test_no_processor_survives_the_run(self, spec, timeout, status):
        def processors():
            return [o for o in gc.get_objects() if isinstance(o, ClusteredProcessor)]

        gc.collect()
        before = processors()
        gc.disable()
        try:
            record = execute_spec(spec, timeout)
            survivors = [
                o for o in processors() if all(o is not b for b in before)
            ]
        finally:
            gc.enable()
        assert record.status == status, record.error
        assert survivors == []


class TestControllerHooks:
    def test_faulted_controller_spec_matches_run_trace(self):
        """The sweep hands the built controller to run_trace itself, so
        every hook fires, ``on_fault`` included: a faulted explore spec
        equals the same run through run_trace."""
        spec = dataclasses.replace(
            spec_for("swim", ControllerSpec.explore()),
            warmup=0,
            faults=FaultSchedule((
                FaultEvent(cycle=300, kind="cluster_kill", cluster=3),
                FaultEvent(cycle=900, kind="cluster_restore", cluster=3),
            )),
        )
        record = execute_spec(spec)
        direct = run_trace(
            generate_trace(get_profile("swim"), LEN, seed=spec.seed),
            spec.config,
            spec.controller.build(),
            warmup=0,
            fault_schedule=spec.faults,
        )
        assert record.ok, record.error
        assert record.result.stats == direct.stats


#: three profiles x three controllers, plus a co-schedule whose first
#: thread runs the same gzip trace as the single-thread gzip specs
_GROUPED_SPECS = [
    dataclasses.replace(
        spec_for(profile, scheme, length=1_200), warmup=200, label=f"{profile}/{name}"
    )
    for profile in ("gzip", "swim", "vpr")
    for name, scheme in (
        ("static-4", ControllerSpec.static(4)),
        ("static-16", ControllerSpec.static(16)),
        ("no-explore", ControllerSpec.no_explore(NoExploreConfig.scaled())),
    )
] + [
    multiprog_run_spec(
        MultiProgSpec(
            workloads=("gzip", "swim"), trace_length=1_200, seed=7, epoch_cycles=400
        )
    )
]


def _serial_sweep(specs):
    return SweepRunner(SweepConfig(backend="serial", use_cache=False)).run(specs)


class TestTraceLifetime:
    """A sweep keeps only the running spec's traces: specs that share a
    trace run back to back, so each trace is built once, and nothing is
    left in the memo once the sweep returns."""

    @pytest.fixture(scope="class")
    def reference(self):
        return _serial_sweep(_GROUPED_SPECS)

    # each example runs a ten-spec sweep: report a failing order as found
    # rather than spend minutes shrinking it
    @given(order=st.permutations(range(len(_GROUPED_SPECS))))
    @settings(max_examples=6, deadline=None, phases=[Phase.generate])
    def test_any_order_builds_each_trace_once(self, reference, order):
        specs = [_GROUPED_SPECS[i] for i in order]
        with mock.patch.object(
            sweep_module, "generate_trace", wraps=generate_trace
        ) as built:
            records = _serial_sweep(specs)
        keys = [(c.args[0].name, c.args[1], c.args[2]) for c in built.call_args_list]
        # gzip, swim and vpr at seed 7, and the co-schedule's thread-1 swim
        assert len(keys) == len(set(keys)) == 4
        assert [r.spec for r in records] == specs
        assert [r.result.stats for r in records] == [
            reference[i].result.stats for i in order
        ]

    def test_no_trace_outlives_the_sweep(self):
        built = []

        def tracked(*args, **kwargs):
            trace = generate_trace(*args, **kwargs)
            built.append(weakref.ref(trace))
            return trace

        gc.collect()
        gc.disable()
        try:
            with mock.patch.object(sweep_module, "generate_trace", tracked):
                result = sweep(
                    _GROUPED_SPECS[:4] + _GROUPED_SPECS[-1:],
                    backend="serial",
                    cache=False,
                )
            alive = [ref for ref in built if ref() is not None]
        finally:
            gc.enable()
        assert all(record.ok for record in result.records)
        assert len(built) == 3
        assert alive == []


class TestTimeoutWithoutSigalrm:
    def test_non_main_thread_run_times_out(self):
        """The deadline needs no signal, so a run on a worker thread is
        bounded too: it ends as a timeout record, not an unbounded run."""
        import threading

        out = {}

        def worker():
            out["record"] = execute_spec(spec_for(length=200_000), timeout=0.05)

        thread = threading.Thread(target=worker)
        thread.start()
        thread.join(timeout=120)
        assert not thread.is_alive()
        assert out["record"].status == "timeout", out["record"].error


class TestResultCache:
    def test_hit_returns_identical_stats(self, tmp_path):
        runner = SweepRunner(SweepConfig(jobs=1, cache_dir=tmp_path))
        [first] = runner.run([spec_for()])
        [second] = runner.run([spec_for()])
        assert not first.from_cache and second.from_cache
        assert second.result.stats.snapshot() == first.result.stats.snapshot()
        assert second.result.stats == first.result.stats
        assert runner.metrics.cache_hits == 1

    def test_hit_rewrites_label_for_the_requesting_exhibit(self, tmp_path):
        runner = SweepRunner(SweepConfig(jobs=1, cache_dir=tmp_path))
        runner.run([spec_for()])
        base = spec_for()
        [hit] = runner.run([dataclasses.replace(base, label="figureX")])
        assert hit.from_cache and hit.result.label == "figureX"

    def test_corrupted_entry_is_evicted_and_recomputed(self, tmp_path):
        runner = SweepRunner(SweepConfig(jobs=1, cache_dir=tmp_path))
        [first] = runner.run([spec_for()])
        path = tmp_path / f"{spec_for().cache_key()}.pkl"
        assert path.exists()
        path.write_bytes(b"this is not a pickle")
        [again] = runner.run([spec_for()])
        assert again.ok and not again.from_cache
        assert again.result.ipc == first.result.ipc
        # the recomputed result was re-cached over the corrupt entry
        [third] = runner.run([spec_for()])
        assert third.from_cache

    def test_bit_flip_fails_checksum_before_unpickling(self, tmp_path):
        """A single flipped byte in the stored record defeats the SHA-256
        and the entry is evicted — the unpickler never sees rotten bytes."""
        runner = SweepRunner(SweepConfig(jobs=1, cache_dir=tmp_path))
        runner.run([spec_for()])
        path = tmp_path / f"{spec_for().cache_key()}.pkl"
        payload = pickle.loads(path.read_bytes())
        assert payload["schema"] == 2 and "sha256" in payload
        rotten = bytearray(payload["record"])
        rotten[len(rotten) // 2] ^= 0x01
        payload["record"] = bytes(rotten)
        path.write_bytes(pickle.dumps(payload))
        assert ResultCache(tmp_path).get(spec_for()) is None
        assert not path.exists()  # evicted
        [again] = runner.run([spec_for()])
        assert again.ok and not again.from_cache  # recomputed, no exception

    def test_hit_is_an_independent_copy(self, tmp_path):
        """get() must hand out a copy: mutating one exhibit's hit cannot
        leak into another exhibit sharing the same cache entry."""
        cache = ResultCache(tmp_path)
        runner = SweepRunner(SweepConfig(jobs=1, cache_dir=tmp_path))
        runner.run([spec_for()])
        first = cache.get(spec_for())
        object.__setattr__(first.result, "ipc", -123.0)  # one consumer misbehaves
        object.__setattr__(first.spec, "profile", "clobbered")
        second = cache.get(spec_for())
        assert second.result.ipc != -123.0
        assert second.spec.profile == "gzip"

    def test_wrong_object_in_entry_is_evicted(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec = spec_for()
        path = tmp_path / f"{spec.cache_key()}.pkl"
        path.write_bytes(pickle.dumps({"schema": 999, "key": "x", "record": None}))
        assert cache.get(spec) is None
        assert not path.exists()

    def test_failed_runs_are_not_cached(self, tmp_path):
        runner = SweepRunner(SweepConfig(jobs=1, cache_dir=tmp_path, retries=0))
        runner.run([spec_for(profile="not-a-benchmark")])
        assert list(tmp_path.iterdir()) == []

    def test_no_cache_runner_never_touches_disk(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        runner = SweepRunner(SweepConfig(jobs=1, use_cache=False))
        runner.run([spec_for()])
        assert list(tmp_path.iterdir()) == []

    def test_cache_dir_env_respected(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "sub"))
        runner = SweepRunner(SweepConfig(jobs=1))
        runner.run([spec_for()])
        assert list((tmp_path / "sub").glob("*.pkl"))


class TestDeterminism:
    """Same seed => identical results: serial, jobs=1, and jobs=4."""

    SPECS = None

    @classmethod
    def specs(cls):
        if cls.SPECS is None:
            schemes = {
                "static-4": ControllerSpec.static(4),
                "explore": ControllerSpec.explore(ExploreConfig.scaled()),
                "no-explore": ControllerSpec.no_explore(NoExploreConfig.scaled()),
            }
            cls.SPECS = [
                dataclasses.replace(spec_for(profile), controller=ctl, label=name)
                for profile in ("gzip", "swim")
                for name, ctl in schemes.items()
            ]
        return cls.SPECS

    @pytest.fixture(scope="class")
    def serial_records(self):
        return SweepRunner(SweepConfig(jobs=1, use_cache=False)).run(self.specs())

    def test_parallel_matches_serial(self, serial_records):
        parallel = SweepRunner(SweepConfig(jobs=4, use_cache=False)).run(self.specs())
        for s, p in zip(serial_records, parallel):
            assert p.spec == s.spec
            assert p.result.committed == s.result.committed
            assert p.result.ipc == s.result.ipc
            assert p.result.cycles == s.result.cycles
            assert p.result.stats.reconfigurations == s.result.stats.reconfigurations
            # every counter, not only the reconfiguration count
            assert p.result.stats == s.result.stats

    def test_serial_repeat_is_identical(self, serial_records):
        again = SweepRunner(SweepConfig(jobs=1, use_cache=False)).run(self.specs())
        for a, b in zip(serial_records, again):
            assert a.result.stats == b.result.stats


class TestMergeableStats:
    def test_sweep_aggregate_equals_counter_sums(self):
        records = SweepRunner(SweepConfig(jobs=1, use_cache=False)).run(
            [spec_for("gzip"), spec_for("swim")]
        )
        total = SimStats.merged(r.result.stats for r in records)
        assert total.committed == sum(r.result.stats.committed for r in records)
        assert total.cycles == sum(r.result.stats.cycles for r in records)
        assert total.ipc == pytest.approx(total.committed / total.cycles)


class TestDefaultJobs:
    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "3")
        assert default_jobs() == 3
        monkeypatch.setenv("REPRO_JOBS", "bogus")
        assert default_jobs() >= 1

    def test_floor_of_one(self, monkeypatch):
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        assert default_jobs() >= 1


class TestSweepConfig:
    def test_retired_runner_kwargs_raise(self):
        """The pre-SweepConfig spellings are gone: keywords and a
        positional job count both raise instead of constructing."""
        with pytest.raises(TypeError):
            SweepRunner(jobs=1)
        with pytest.raises(TypeError, match="SweepConfig"):
            SweepRunner(2)

    def test_config_validation(self):
        from repro.errors import ConfigError

        with pytest.raises(ConfigError, match="jobs"):
            SweepConfig(jobs=-1)
        with pytest.raises(ConfigError, match="backend"):
            SweepConfig(backend="steam-powered")
        with pytest.raises(ConfigError, match="backend"):
            SweepConfig(backend="distributed")  # retired
        with pytest.raises(ConfigError, match="retries"):
            SweepConfig(retries=-1)

    def test_resolved_backend_auto(self):
        assert SweepConfig(jobs=1).resolved_backend() == "serial"
        assert SweepConfig(jobs=4).resolved_backend() == "process-pool"
        assert SweepConfig(jobs=4, backend="serial").resolved_backend() == "serial"
