"""SweepJournal: durable appends, corruption tolerance, resume filtering."""

import base64
import json
import pickle

import pytest

from repro.config import default_config
from repro.experiments.journal import JOURNAL_SCHEMA_VERSION, SweepJournal
from repro.experiments.sweep import (
    ControllerSpec,
    RunRecord,
    RunSpec,
    SweepConfig,
    SweepRunner,
)

LEN = 3_000


def spec_for(profile="gzip", clusters=4, **kw):
    return RunSpec(
        profile=profile,
        trace_length=LEN,
        config=default_config(16),
        controller=ControllerSpec.static(clusters),
        label="journal-test",
        **kw,
    )


@pytest.fixture()
def completed_records():
    """Two real completed records (one per profile), computed once."""
    runner = SweepRunner(SweepConfig(jobs=1, use_cache=False))
    return runner.run([spec_for("gzip"), spec_for("swim")])


class TestRoundTrip:
    def test_append_then_load(self, tmp_path, completed_records):
        journal = SweepJournal(tmp_path / "sweep.jsonl")
        for record in completed_records:
            journal.append(record)
        loaded = journal.load()
        assert len(loaded) == 2
        for record in completed_records:
            back = loaded[record.spec.cache_key()]
            assert back.ok
            assert back.result.stats.snapshot() == record.result.stats.snapshot()
        assert journal.corrupt_lines == 0

    def test_missing_file_loads_empty(self, tmp_path):
        journal = SweepJournal(tmp_path / "nope.jsonl")
        assert journal.load() == {}

    def test_later_line_wins_for_same_key(self, tmp_path, completed_records):
        journal = SweepJournal(tmp_path / "sweep.jsonl")
        first = completed_records[0]
        failed = RunRecord(spec=first.spec, status="failed", error="transient")
        journal.append(failed)
        journal.append(first)  # later success supersedes the failure
        loaded = journal.load()
        assert loaded[first.spec.cache_key()].ok

    def test_load_ok_excludes_failures(self, tmp_path, completed_records):
        journal = SweepJournal(tmp_path / "sweep.jsonl")
        journal.append(completed_records[0])
        bad = RunRecord(spec=spec_for("vpr"), status="timeout", error="slow")
        journal.append(bad)
        assert len(journal.load()) == 2
        ok = journal.load_ok()
        assert len(ok) == 1
        assert completed_records[0].spec.cache_key() in ok


class TestCorruptionTolerance:
    def _journal_with_two(self, tmp_path, records):
        journal = SweepJournal(tmp_path / "sweep.jsonl")
        journal.append(records[0])
        journal.append(records[1])
        return journal

    def test_truncated_final_line_skipped(self, tmp_path, completed_records):
        """A sweep killed mid-append leaves a torn last line — never fatal."""
        journal = self._journal_with_two(tmp_path, completed_records)
        text = journal.path.read_text()
        journal.path.write_text(text + text.splitlines()[0][: len(text) // 8])
        loaded = journal.load()
        assert len(loaded) == 2
        assert journal.corrupt_lines == 1

    def test_garbage_middle_line_skipped(self, tmp_path, completed_records):
        journal = self._journal_with_two(tmp_path, completed_records)
        lines = journal.path.read_text().splitlines()
        lines.insert(1, "{not json at all")
        journal.path.write_text("\n".join(lines) + "\n")
        assert len(journal.load()) == 2
        assert journal.corrupt_lines == 1

    def test_checksum_mismatch_skipped(self, tmp_path, completed_records):
        journal = self._journal_with_two(tmp_path, completed_records)
        lines = journal.path.read_text().splitlines()
        entry = json.loads(lines[0])
        payload = bytearray(base64.b64decode(entry["payload"]))
        payload[len(payload) // 2] ^= 0xFF  # one flipped byte, sha intact
        entry["payload"] = base64.b64encode(bytes(payload)).decode()
        lines[0] = json.dumps(entry)
        journal.path.write_text("\n".join(lines) + "\n")
        loaded = journal.load()
        assert len(loaded) == 1  # the tampered record is rejected up front
        assert journal.corrupt_lines == 1

    def test_wrong_object_payload_skipped(self, tmp_path, completed_records):
        journal = self._journal_with_two(tmp_path, completed_records)
        payload = pickle.dumps({"not": "a RunRecord"})
        import hashlib

        line = json.dumps(
            {
                "schema": JOURNAL_SCHEMA_VERSION,
                "key": "bogus",
                "status": "ok",
                "sha256": hashlib.sha256(payload).hexdigest(),
                "payload": base64.b64encode(payload).decode(),
            }
        )
        with open(journal.path, "a") as fh:
            fh.write(line + "\n")
        assert len(journal.load()) == 2
        assert journal.corrupt_lines == 1

    def test_schema_mismatch_skipped(self, tmp_path, completed_records):
        journal = self._journal_with_two(tmp_path, completed_records)
        lines = journal.path.read_text().splitlines()
        entry = json.loads(lines[0])
        entry["schema"] = 999
        lines[0] = json.dumps(entry)
        journal.path.write_text("\n".join(lines) + "\n")
        assert len(journal.load()) == 1


class TestRunnerIntegration:
    def test_runner_journals_every_final_record(self, tmp_path):
        journal_path = tmp_path / "sweep.jsonl"
        runner = SweepRunner(SweepConfig(jobs=1, use_cache=False, retries=0, journal=journal_path))
        runner.run([spec_for("gzip"), spec_for(profile="not-a-benchmark")])
        journal = SweepJournal(journal_path)
        loaded = journal.load()
        assert len(loaded) == 2
        statuses = sorted(r.status for r in loaded.values())
        assert statuses == ["failed", "ok"]

    def test_resume_skips_completed_work(self, tmp_path):
        journal_path = tmp_path / "sweep.jsonl"
        specs = [spec_for("gzip"), spec_for("swim"), spec_for("vpr")]
        # first attempt completes only the first two specs
        first = SweepRunner(SweepConfig(jobs=1, use_cache=False, journal=journal_path))
        first.run(specs[:2])
        resumed = SweepRunner(
            SweepConfig(jobs=1, use_cache=False, journal=journal_path, resume=True)
        )
        records = resumed.run(specs)
        assert [r.status for r in records] == ["ok", "ok", "ok"]
        assert [r.from_journal for r in records] == [True, True, False]
        assert resumed.metrics.journal_skips == 2
        # the third run was appended, so a further resume skips all three
        third = SweepRunner(
            SweepConfig(jobs=1, use_cache=False, journal=journal_path, resume=True)
        )
        third.run(specs)
        assert third.metrics.journal_skips == 3

    def test_resume_reattempts_journaled_failures(self, tmp_path):
        journal_path = tmp_path / "sweep.jsonl"
        spec = spec_for("gzip")
        journal = SweepJournal(journal_path)
        journal.append(RunRecord(spec=spec, status="failed", error="transient"))
        runner = SweepRunner(
            SweepConfig(jobs=1, use_cache=False, journal=journal_path, resume=True)
        )
        [record] = runner.run([spec])
        assert record.ok and not record.from_journal
        assert runner.metrics.journal_skips == 0

    def test_journal_hit_is_relabelled_copy(self, tmp_path):
        import dataclasses

        journal_path = tmp_path / "sweep.jsonl"
        base = spec_for("gzip")
        SweepRunner(SweepConfig(jobs=1, use_cache=False, journal=journal_path)).run([base])
        other = dataclasses.replace(base, label="another-exhibit")
        runner = SweepRunner(
            SweepConfig(jobs=1, use_cache=False, journal=journal_path, resume=True)
        )
        [record] = runner.run([other])
        assert record.from_journal
        assert record.result.label == "another-exhibit"

    def test_unwritable_journal_degrades_not_fatal(self, tmp_path):
        # parent "directory" is a regular file, so every append fails
        # (chmod tricks don't work here: the test suite may run as root)
        (tmp_path / "blocker").write_text("")
        target = tmp_path / "blocker" / "sweep.jsonl"
        runner = SweepRunner(SweepConfig(jobs=1, use_cache=False, journal=target))
        [record] = runner.run([spec_for("gzip")])
        assert record.ok
        assert runner.metrics.journal_errors == 1
        # the failed write reaches --metrics-json and sweep_metrics.json
        assert runner.metrics.snapshot()["journal_errors"] == 1
