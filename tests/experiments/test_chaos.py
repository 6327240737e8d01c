"""Chaos suite: the sweep engine under injected faults.

Every scenario here must end in a *structured* record (or a resumable
journal) — an unhandled exception out of ``SweepRunner.run`` is a test
failure by construction.  The tests inject each fault themselves, through
the helpers in ``tests/experiments/injection.py``; the kill test uses a
real ``SIGKILL``-ed child process.
"""

import dataclasses
import json
import os
import pickle
import signal
import subprocess
import sys
import textwrap

import pytest

import repro
from repro.config import default_config
from repro.errors import SweepInterrupted
from repro.experiments.sweep import ControllerSpec, RunSpec, SweepConfig, SweepRunner

from .injection import crashing, fail, inject_into_runs, rot_cache_entries

LEN = 3_000
SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
REPO = os.path.dirname(SRC)


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

        runner = SweepRunner(
            SweepConfig(jobs=1, use_cache=False, journal=sys.argv[2]),
            progress=hook,
        )
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

        resumed = SweepRunner(
            SweepConfig(jobs=1, use_cache=False, journal=journal_path, resume=True),
        )
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

        runner = SweepRunner(
            SweepConfig(jobs=1, use_cache=False, journal=journal_path),
            progress=interrupt_after_first,
        )
        with pytest.raises(SweepInterrupted) as excinfo:
            runner.run(specs)
        partial = excinfo.value.completed
        assert 1 <= len(partial) < len(specs)
        assert all(r.ok for r in partial)

        resumed = SweepRunner(
            SweepConfig(jobs=1, use_cache=False, journal=journal_path, resume=True),
        )
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

        runner = SweepRunner(
            SweepConfig(jobs=2, use_cache=False, journal=journal_path),
            progress=interrupt_after_first,
        )
        with pytest.raises(SweepInterrupted) as excinfo:
            runner.run(specs)
        partial = excinfo.value.completed
        assert 1 <= len(partial) < len(specs)
        assert all(r.ok for r in partial)

        resumed = SweepRunner(
            SweepConfig(jobs=2, use_cache=False, journal=journal_path, resume=True),
        )
        records = resumed.run(specs)
        assert resumed.metrics.journal_skips == len(partial)

        reference = SweepRunner(SweepConfig(jobs=2, use_cache=False)).run(specs)
        assert snapshot(records) == snapshot(reference)
        for record in records:
            assert record.result.stats.faults_injected == 2


class TestWorkerCrash:
    def test_crash_respawns_pool_and_completes(self, tmp_path):
        """One injected worker crash: the pool is respawned, the suspect is
        re-probed, and the sweep still finishes all-ok."""
        token_dir = tmp_path / "tokens"
        token_dir.mkdir()
        (token_dir / "crash-0").touch()  # budget: exactly one crash
        specs = [spec_for("gzip"), crashing(spec_for("swim"), token_dir),
                 spec_for("vpr")]
        runner = SweepRunner(SweepConfig(jobs=2, use_cache=False))
        records = runner.run(specs)
        assert [r.status for r in records] == ["ok", "ok", "ok"]
        assert runner.metrics.pool_respawns >= 1
        assert list(token_dir.iterdir()) == []  # the token was spent

    def test_repeat_crasher_is_quarantined(self):
        """A spec that kills every worker it touches ends up poisoned, and
        the innocents that shared the pool with it still complete."""
        runner = SweepRunner(SweepConfig(jobs=2, use_cache=False, retries=0))
        records = runner.run(
            [spec_for("gzip"), crashing(spec_for("swim")), spec_for("vpr")]
        )
        by_profile = {r.spec.profile: r for r in records}
        assert by_profile["swim"].status == "poisoned"
        assert "quarantined" in by_profile["swim"].error
        assert by_profile["gzip"].ok and by_profile["vpr"].ok
        assert runner.metrics.poisoned == 1
        assert runner.metrics.pool_respawns >= 2

    CHILD = textwrap.dedent(
        """
        import json, multiprocessing, sys

        from repro.config import default_config
        from repro.experiments.sweep import ControllerSpec, RunSpec, SweepConfig, SweepRunner
        from tests.experiments.injection import crashing

        multiprocessing.set_start_method("forkserver")
        specs = [
            RunSpec(profile=p, trace_length=int(sys.argv[1]),
                    config=default_config(16),
                    controller=ControllerSpec.static(4), label="chaos")
            for p in ("gzip", "swim", "vpr")
        ]
        specs[1] = crashing(specs[1])
        runner = SweepRunner(SweepConfig(jobs=2, use_cache=False, retries=0))
        records = runner.run(specs)
        print(json.dumps({
            "status": {r.spec.profile: r.status for r in records},
            "poisoned": runner.metrics.poisoned,
            "respawns": runner.metrics.pool_respawns,
        }))
        """
    )

    def test_repeat_crasher_is_quarantined_under_forkserver(self):
        """The quarantine holds when pool workers start from a fork server
        (the Linux default from Python 3.14): each worker imports the
        crash spec afresh, and it still crashes there."""
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [SRC, REPO] + [p for p in [env.get("PYTHONPATH")] if p]
        )
        proc = subprocess.run(
            [sys.executable, "-c", self.CHILD, str(LEN)],
            env=env, capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        outcome = json.loads(proc.stdout)
        assert outcome["status"] == {"gzip": "ok", "swim": "poisoned", "vpr": "ok"}
        assert outcome["poisoned"] == 1
        assert outcome["respawns"] >= 2

    def test_crash_spec_is_plain_outside_a_worker(self):
        """Unpickled anywhere but in a pool worker (the main process
        loading a journal, say) the crash spec is the plain spec, and a
        serial sweep runs it normally."""
        spec = crashing(spec_for("gzip"))
        loaded = pickle.loads(pickle.dumps(spec))
        assert type(loaded) is RunSpec
        assert loaded == spec_for("gzip")
        assert loaded.cache_key() == spec.cache_key()
        [record] = SweepRunner(SweepConfig(jobs=1, use_cache=False)).run([spec])
        assert record.ok


class TestCacheCorruption:
    def test_corrupt_write_is_detected_and_recomputed(self, tmp_path, monkeypatch):
        runner = SweepRunner(SweepConfig(jobs=1, cache_dir=tmp_path))
        [first] = runner.run([spec_for("gzip")])
        assert first.ok
        rotten = rot_cache_entries(tmp_path)
        assert len(rotten) == 1

        # the checksum rejects the rotten entry before unpickling: a miss,
        # an eviction, a recompute — never an exception or a wrong result
        unpickled = []
        real_loads = pickle.loads
        monkeypatch.setattr(
            pickle, "loads",
            lambda data, **kw: unpickled.append(data) or real_loads(data, **kw),
        )
        [second] = runner.run([spec_for("gzip")])
        assert second.ok and not second.from_cache
        assert rotten[0] not in unpickled
        assert second.result.stats.snapshot() == first.result.stats.snapshot()
        assert runner.metrics.cache_hits == 0
        assert runner.metrics.cache_misses == 2

        # the recomputed entry round-trips
        [hit] = runner.run([spec_for("gzip")])
        assert hit.from_cache
        assert hit.result.stats == first.result.stats


class TestResultPoisoning:
    def test_nan_ipc_is_caught_by_validation(self, monkeypatch):
        """A run that *completes* with NaN stats must become a structured
        failure — silent NaN in an exhibit is the worst outcome."""
        inject_into_runs(
            monkeypatch, "gzip",
            lambda run: dataclasses.replace(run(), ipc=float("nan")),
        )
        runner = SweepRunner(SweepConfig(jobs=1, use_cache=False, retries=0))
        records = runner.run([spec_for("gzip"), spec_for("swim")])
        assert records[0].status == "failed"
        assert "IPC" in records[0].error
        assert records[1].ok


class TestTransientFailure:
    def test_retry_recovers_transient_failure(self, monkeypatch):
        """A fault that fires only on the first attempt models a transient
        failure: the retry succeeds."""
        attempts = []

        def fails_once(run):
            attempts.append(run)
            return fail(run) if len(attempts) == 1 else run()

        inject_into_runs(monkeypatch, "gzip", fails_once)
        runner = SweepRunner(SweepConfig(jobs=1, use_cache=False, retries=1))
        [record] = runner.run([spec_for("gzip")])
        assert record.ok
        assert record.attempts == 2
        assert runner.metrics.retries == 1


class TestHang:
    def test_hang_hits_the_timeout(self):
        """A run far longer than its timeout, in a pool worker, stops at
        its deadline and comes back as a ``"timeout"`` record while its
        neighbour finishes."""
        slow = RunSpec(profile="gzip", trace_length=200_000,
                       config=default_config(16), label="slow")
        runner = SweepRunner(
            SweepConfig(backend="process-pool", jobs=2, use_cache=False,
                        retries=0, timeout=1.0)
        )
        records = runner.run([slow, spec_for("swim")])
        assert [r.status for r in records] == ["timeout", "ok"]
        assert "1s timeout" in records[0].error
        assert runner.metrics.timeouts == 1
