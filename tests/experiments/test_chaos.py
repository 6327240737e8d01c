"""Chaos suite: the sweep engine under injected faults.

Every scenario here must end in a *structured* record (or a resumable
journal) — an unhandled exception out of ``SweepRunner.run`` is a test
failure by construction.  Faults come from :mod:`repro.faults`; the kill
test uses a real ``SIGKILL``-ed child process.
"""

import os
import pickle
import signal
import subprocess
import sys
import textwrap

import pytest

import repro
from repro import faults
from repro.config import default_config
from repro.errors import SweepInterrupted
from repro.experiments.sweep import ControllerSpec, RunSpec, SweepConfig, SweepRunner

LEN = 3_000
SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))


def spec_for(profile, clusters=4, **kw):
    return RunSpec(
        profile=profile,
        trace_length=LEN,
        config=default_config(16),
        controller=ControllerSpec.static(clusters),
        label="chaos",
        **kw,
    )


FOUR_SPECS = ("gzip", "swim", "vpr", "crafty")


@pytest.fixture(autouse=True)
def no_leftover_plan():
    """Every test starts and ends with fault injection disarmed."""
    faults.clear_fault_plan()
    yield
    faults.clear_fault_plan()


def snapshot(records):
    return [r.result.stats.snapshot() for r in records]


class TestKillAndResume:
    """The acceptance scenario: SIGKILL a sweep, resume, bit-identical."""

    CHILD = textwrap.dedent(
        """
        import os, pickle, signal, sys

        from repro.experiments.sweep import SweepConfig, SweepRunner

        with open(sys.argv[1], "rb") as fh:
            specs = pickle.load(fh)

        done = 0
        def hook(event):
            global done
            done += 1
            if done == 2:  # two records journaled, then die mid-sweep
                os.kill(os.getpid(), signal.SIGKILL)

        runner = SweepRunner(SweepConfig(jobs=1, use_cache=False, journal=sys.argv[2]), progress=hook)
        runner.run(specs)
        """
    )

    def test_sigkill_then_resume_is_bit_identical(self, tmp_path):
        specs = [spec_for(p) for p in FOUR_SPECS]
        spec_file = tmp_path / "specs.pkl"
        spec_file.write_bytes(pickle.dumps(specs))
        journal_path = tmp_path / "sweep.jsonl"

        env = dict(os.environ)
        env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run(
            [sys.executable, "-c", self.CHILD, str(spec_file), str(journal_path)],
            env=env,
            capture_output=True,
            timeout=300,
        )
        assert proc.returncode == -signal.SIGKILL, proc.stderr.decode()
        assert journal_path.exists()

        resumed = SweepRunner(SweepConfig(jobs=1, use_cache=False, journal=journal_path, resume=True))
        records = resumed.run(specs)
        assert resumed.metrics.journal_skips == 2
        assert [r.from_journal for r in records] == [True, True, False, False]

        reference = SweepRunner(SweepConfig(jobs=1, use_cache=False)).run(specs)
        assert snapshot(records) == snapshot(reference)
        assert [r.result.stats for r in records] == [
            r.result.stats for r in reference
        ]


class TestSignalDrain:
    def test_sigint_drains_and_resume_completes(self, tmp_path):
        """First SIGINT: in-flight work finishes, partials are flushed,
        SweepInterrupted carries them out; a resumed sweep completes and
        the combined result matches an uninterrupted run."""
        journal_path = tmp_path / "sweep.jsonl"
        specs = [spec_for(p) for p in FOUR_SPECS]

        def interrupt_after_first(event):
            if event["completed"] == 1:
                os.kill(os.getpid(), signal.SIGINT)

        runner = SweepRunner(SweepConfig(jobs=1, use_cache=False, journal=journal_path), progress=interrupt_after_first)
        with pytest.raises(SweepInterrupted) as excinfo:
            runner.run(specs)
        partial = excinfo.value.completed
        assert 1 <= len(partial) < len(specs)
        assert all(r.ok for r in partial)

        resumed = SweepRunner(SweepConfig(jobs=1, use_cache=False, journal=journal_path, resume=True))
        records = resumed.run(specs)
        assert resumed.metrics.journal_skips == len(partial)

        reference = SweepRunner(SweepConfig(jobs=1, use_cache=False)).run(specs)
        assert snapshot(records) == snapshot(reference)


class TestFaultedSignalDrain:
    """Satellite of the architectural fault model: a sweep of *faulted*
    runs interrupted mid-flight must drain, journal, and resume to the
    same bits — the fault schedule replays from the spec, not from any
    state the interrupt could have lost."""

    @staticmethod
    def faulted_specs():
        from repro.resilience import FaultEvent, FaultSchedule

        schedule = FaultSchedule((
            FaultEvent(cycle=400, kind="cluster_kill", cluster=3),
            FaultEvent(cycle=700, kind="fu_disable", cluster=2,
                       unit="int_alu"),
            FaultEvent(cycle=1_000, kind="cluster_restore", cluster=3),
        ))
        return [spec_for(p, clusters=16, faults=schedule)
                for p in FOUR_SPECS]

    @pytest.mark.parametrize("signum", [signal.SIGINT, signal.SIGTERM])
    def test_signal_drain_resumes_faulted_sweep(self, tmp_path, signum):
        journal_path = tmp_path / f"sweep-{signum}.jsonl"
        specs = self.faulted_specs()

        def interrupt_after_first(event):
            if event["completed"] == 1:
                os.kill(os.getpid(), signum)

        runner = SweepRunner(SweepConfig(jobs=2, use_cache=False, journal=journal_path), progress=interrupt_after_first)
        with pytest.raises(SweepInterrupted) as excinfo:
            runner.run(specs)
        partial = excinfo.value.completed
        assert 1 <= len(partial) < len(specs)
        assert all(r.ok for r in partial)

        resumed = SweepRunner(SweepConfig(jobs=2, use_cache=False, journal=journal_path, resume=True))
        records = resumed.run(specs)
        assert resumed.metrics.journal_skips == len(partial)

        reference = SweepRunner(SweepConfig(jobs=2, use_cache=False)).run(specs)
        assert snapshot(records) == snapshot(reference)
        for record in records:
            assert record.result.stats.faults_injected == 3


class TestWorkerCrash:
    def test_crash_respawns_pool_and_completes(self, tmp_path):
        """One injected worker crash: the pool is respawned, the suspect is
        re-probed, and the sweep still finishes all-ok."""
        token_dir = tmp_path / "tokens"
        token_dir.mkdir()
        (token_dir / "crash-0").touch()  # budget: exactly one crash
        faults.set_fault_plan(
            faults.FaultPlan(
                crash_profiles=("swim",), crash_token_dir=str(token_dir)
            )
        )
        runner = SweepRunner(SweepConfig(jobs=2, use_cache=False))
        records = runner.run([spec_for(p) for p in ("gzip", "swim", "vpr")])
        assert [r.status for r in records] == ["ok", "ok", "ok"]
        assert runner.metrics.pool_respawns >= 1
        assert list(token_dir.iterdir()) == []  # the token was spent

    def test_repeat_crasher_is_quarantined(self):
        """A spec that kills every worker it touches ends up poisoned, and
        the innocents that shared the pool with it still complete."""
        faults.set_fault_plan(faults.FaultPlan(crash_profiles=("swim",)))
        runner = SweepRunner(SweepConfig(jobs=2, use_cache=False, retries=0, poison_threshold=2))
        records = runner.run([spec_for(p) for p in ("gzip", "swim", "vpr")])
        by_profile = {r.spec.profile: r for r in records}
        assert by_profile["swim"].status == "poisoned"
        assert "quarantined" in by_profile["swim"].error
        assert by_profile["gzip"].ok and by_profile["vpr"].ok
        assert runner.metrics.poisoned == 1
        assert runner.metrics.pool_respawns >= 2

    def test_crash_in_main_process_degrades_to_failure(self):
        """jobs=1 runs in-process; the crash fault must refuse to kill the
        test runner and surface as a structured failure instead."""
        faults.set_fault_plan(faults.FaultPlan(crash_profiles=("gzip",)))
        [record] = SweepRunner(SweepConfig(jobs=1, use_cache=False, retries=0)).run(
            [spec_for("gzip")]
        )
        assert record.status == "failed"
        assert "FaultInjected" in record.error


class TestCacheCorruption:
    def test_corrupt_write_is_detected_and_recomputed(self, tmp_path):
        faults.set_fault_plan(faults.FaultPlan(corrupt_cache_writes=True))
        runner = SweepRunner(SweepConfig(jobs=1, cache_dir=tmp_path))
        [first] = runner.run([spec_for("gzip")])
        assert first.ok
        assert list(tmp_path.glob("*.pkl"))  # a (corrupt) entry was written

        # the checksum rejects the corrupt entry before unpickling: a miss,
        # an eviction, a recompute — never an exception or a wrong result
        [second] = runner.run([spec_for("gzip")])
        assert second.ok and not second.from_cache
        assert second.result.stats.snapshot() == first.result.stats.snapshot()
        assert runner.metrics.cache_hits == 0
        assert runner.metrics.cache_misses == 2

        # with the fault disarmed the rewritten entry round-trips again
        faults.clear_fault_plan()
        runner.run([spec_for("gzip")])
        [hit] = runner.run([spec_for("gzip")])
        assert hit.from_cache


class TestResultPoisoning:
    def test_nan_ipc_is_caught_by_validation(self):
        """A run that *completes* with NaN stats must become a structured
        failure — silent NaN in an exhibit is the worst outcome."""
        faults.set_fault_plan(faults.FaultPlan(nan_profiles=("gzip",)))
        runner = SweepRunner(SweepConfig(jobs=1, use_cache=False, retries=0))
        records = runner.run([spec_for("gzip"), spec_for("swim")])
        assert records[0].status == "failed"
        assert "IPC" in records[0].error
        assert records[1].ok


class TestHang:
    def test_hang_hits_the_timeout(self):
        faults.set_fault_plan(
            faults.FaultPlan(hang_profiles=("gzip",), hang_seconds=5.0)
        )
        runner = SweepRunner(SweepConfig(jobs=1, use_cache=False, retries=0, timeout=0.2))
        [record] = runner.run([spec_for("gzip")])
        assert record.status == "timeout"


class TestFaultPlanTransport:
    def test_json_round_trip(self):
        plan = faults.FaultPlan(
            crash_profiles=("swim", "vpr"),
            crash_token_dir="/tmp/tokens",
            fail_profiles=("gzip",),
            hang_seconds=1.5,
            nan_profiles=("crafty",),
            corrupt_cache_writes=True,
        )
        assert faults.FaultPlan.from_json(plan.to_json()) == plan

    def test_plan_travels_via_environment(self, monkeypatch):
        plan = faults.FaultPlan(fail_profiles=("gzip",))
        faults.set_fault_plan(plan)
        # simulate a worker: no in-process global, only the inherited env
        monkeypatch.setattr(faults, "_ACTIVE", None)
        assert faults.active_plan() == plan

    def test_malformed_env_plan_is_ignored(self, monkeypatch):
        monkeypatch.setattr(faults, "_ACTIVE", None)
        monkeypatch.setenv(faults.FAULT_PLAN_ENV, "{broken json")
        assert faults.active_plan() is None

    def test_unknown_key_raises_naming_it(self):
        with pytest.raises(ValueError, match="'crash_profilez'"):
            faults.FaultPlan.from_json('{"crash_profilez": ["gzip"]}')

    def test_non_object_payload_raises(self):
        with pytest.raises(ValueError, match="JSON object"):
            faults.FaultPlan.from_json('["gzip"]')

    @pytest.mark.parametrize("payload,key", [
        ('{"crash_profiles": "gzip"}', "crash_profiles"),
        ('{"crash_profiles": [1, 2]}', "crash_profiles"),
        ('{"hang_seconds": "soon"}', "hang_seconds"),
        ('{"corrupt_cache_writes": 1}', "corrupt_cache_writes"),
        ('{"scramble_topology": "yes"}', "scramble_topology"),
        ('{"crash_token_dir": 7}', "crash_token_dir"),
        ('{"main_pid": "me"}', "main_pid"),
    ])
    def test_wrong_typed_field_raises_naming_it(self, payload, key):
        with pytest.raises(ValueError, match=repr(key)):
            faults.FaultPlan.from_json(payload)

    def test_wrong_typed_env_plan_degrades_to_no_plan(self, monkeypatch):
        monkeypatch.setattr(faults, "_ACTIVE", None)
        monkeypatch.setenv(faults.FAULT_PLAN_ENV, '{"hang_seconds": "soon"}')
        assert faults.active_plan() is None

    def test_retry_with_backoff_recovers_transient_failure(self, monkeypatch):
        """A fault that fires only on the first attempt models a transient
        failure: the retry (with jittered backoff configured) succeeds."""
        faults.set_fault_plan(faults.FaultPlan(fail_profiles=("gzip",)))
        original = faults.on_execute
        calls = {"n": 0}

        def fails_once(spec):
            calls["n"] += 1
            if calls["n"] == 1:
                original(spec)

        monkeypatch.setattr(faults, "on_execute", fails_once)
        runner = SweepRunner(SweepConfig(jobs=1, use_cache=False, retries=1, retry_backoff=0.001))
        [record] = runner.run([spec_for("gzip")])
        assert record.ok
        assert record.attempts == 2
        assert runner.metrics.retries == 1
