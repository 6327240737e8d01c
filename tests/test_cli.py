"""Command-line interface."""

import argparse
import pathlib

import pytest

from repro.cli import _parse_benchmarks, _run_policy, build_parser, main
from repro.config import TOPOLOGIES
from repro.errors import ConfigError
from repro.experiments import EXHIBITS

RESULTS = pathlib.Path(__file__).resolve().parent.parent / "results"


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_defaults(self):
        args = build_parser().parse_args(["run", "gzip"])
        assert args.benchmark == "gzip"
        assert args.clusters == 16
        assert args.machine == "ring"

    def test_exhibit_args(self):
        args = build_parser().parse_args(["figure3", "--benchmarks", "gzip,swim"])
        assert args.benchmarks == "gzip,swim"

    def test_unknown_benchmark_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "quake"])

    @pytest.mark.parametrize("machine", [*TOPOLOGIES, "monolithic"])
    def test_every_facade_topology_is_a_machine(self, machine):
        args = build_parser().parse_args(["run", "gzip", "--machine", machine])
        assert args.machine == machine


class TestHelpers:
    def test_run_policy_mapping(self):
        assert _run_policy("ring", "static", 4) == "static-4"
        assert _run_policy("grid", "explore", 4) == "explore"
        assert _run_policy("decentralized", "no-explore", 8) == "no-explore"
        assert _run_policy("ring", "finegrain", 16) == "finegrain"
        assert _run_policy("ring", "subroutine", 16) == "subroutine"
        # monolithic has no clustering to reconfigure
        assert _run_policy("monolithic", "explore", 4) == "none"

    def test_parse_benchmarks(self):
        assert len(_parse_benchmarks("")) == 9
        assert _parse_benchmarks("gzip, swim") == ("gzip", "swim")
        with pytest.raises(ConfigError, match="unknown benchmark 'quake'"):
            _parse_benchmarks("gzip,quake")


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "gzip" in out and "swim" in out

    def test_run_static(self, capsys):
        rc = main(["run", "gzip", "--length", "4000", "--warmup", "500",
                   "--clusters", "4"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "IPC" in out

    @pytest.mark.parametrize(
        "clusters, message",
        [
            pytest.param("32", "asks for 32 clusters, but the machine has 16", id="32"),
            pytest.param("0", "positive cluster count", id="0"),
        ],
    )
    def test_run_refuses_a_cluster_count_the_machine_lacks(
        self, capsys, clusters, message
    ):
        rc = main(["run", "gzip", "--length", "2000", "--clusters", clusters])
        assert rc == 2
        captured = capsys.readouterr()
        assert message in captured.err
        assert "IPC" not in captured.out

    def test_run_monolithic(self, capsys):
        rc = main(["run", "swim", "--length", "4000", "--warmup", "500",
                   "--machine", "monolithic"])
        assert rc == 0
        # the label names the policy that ran, not the ignored --controller
        assert "swim on monolithic (none)" in capsys.readouterr().out

    def test_exhibit_subset(self, capsys):
        rc = main(["figure3", "--benchmarks", "gzip", "--length", "4000"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "Figure 3" in out and "gzip" in out

    def test_table3_subset(self, capsys):
        rc = main(["table3", "--benchmarks", "swim", "--length", "4000"])
        assert rc == 0
        assert "Table 3" in capsys.readouterr().out

    def test_exhibits_leave_home_untouched(self, capsys, tmp_path, monkeypatch):
        """The two exhibit runs above, with the default result cache: the
        suite keeps it in the test's own directory, never under $HOME."""
        home = tmp_path / "home"
        home.mkdir()
        monkeypatch.setenv("HOME", str(home))
        assert main(["figure3", "--benchmarks", "gzip", "--length", "4000"]) == 0
        assert main(["table3", "--benchmarks", "swim", "--length", "4000"]) == 0
        capsys.readouterr()
        assert list(home.iterdir()) == []

    def test_exhibit_jobs_and_no_cache(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        rc = main(["figure3", "--benchmarks", "gzip", "--length", "4000",
                   "--jobs", "1", "--no-cache"])
        assert rc == 0
        captured = capsys.readouterr()
        assert "Figure 3" in captured.out
        assert "Sweep metrics" in captured.err
        assert list(tmp_path.iterdir()) == []  # --no-cache: nothing written

    def test_exhibit_uses_cache_dir_env(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        rc = main(["figure3", "--benchmarks", "gzip", "--length", "4000",
                   "--jobs", "1"])
        assert rc == 0
        capsys.readouterr()
        assert list(tmp_path.glob("*.pkl"))

    def test_exhibit_metrics_json(self, capsys, tmp_path, monkeypatch):
        import json

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        out_path = tmp_path / "metrics.json"
        rc = main(["table3", "--benchmarks", "swim", "--length", "4000",
                   "--jobs", "1", "--metrics-json", str(out_path)])
        assert rc == 0
        capsys.readouterr()
        snapshot = json.loads(out_path.read_text())
        assert snapshot["jobs"] == 1
        assert snapshot["completed"] == 1
        assert snapshot["p50_run_seconds"] >= 0

    def test_jobs_flag_parses(self):
        args = build_parser().parse_args(["figure5", "--jobs", "4", "--no-cache"])
        assert args.jobs == 4 and args.no_cache

    def test_resume_and_journal_flags_parse(self):
        args = build_parser().parse_args(
            ["figure3", "--resume", "--journal", "/tmp/j.jsonl"]
        )
        assert args.resume and args.journal == "/tmp/j.jsonl"
        args = build_parser().parse_args(["figure3"])
        assert not args.resume and args.journal is None

    def test_trace_flag_parses_everywhere(self):
        args = build_parser().parse_args(["run", "gzip", "--trace", "/tmp/t"])
        assert args.trace == "/tmp/t"
        args = build_parser().parse_args(["figure3", "--trace", "/tmp/t"])
        assert args.trace == "/tmp/t"
        assert build_parser().parse_args(["run", "gzip"]).trace is None

    def test_run_trace_writes_session(self, capsys, tmp_path):
        rc = main(["run", "gzip", "--length", "4000", "--warmup", "500",
                   "--controller", "explore", "--trace",
                   str(tmp_path / "out")])
        assert rc == 0
        for name in ("events.jsonl", "timeline.csv", "trace.json"):
            assert (tmp_path / "out" / name).exists()
        assert "trace written" in capsys.readouterr().err

    def test_exhibit_trace_writes_sweep_profile(self, capsys, tmp_path,
                                                monkeypatch):
        import json

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        rc = main(["figure3", "--benchmarks", "gzip", "--length", "4000",
                   "--jobs", "1", "--no-cache", "--trace",
                   str(tmp_path / "prof")])
        assert rc == 0
        capsys.readouterr()
        snapshot = json.loads((tmp_path / "prof" /
                               "sweep_metrics.json").read_text())
        assert snapshot["specs"], "per-spec timings must be recorded"
        trace = json.loads((tmp_path / "prof" /
                            "sweep_trace.json").read_text())
        assert any(e.get("ph") == "X" for e in trace["traceEvents"])


class TestExhibits:
    def test_registry_commands_and_results_files_agree(self):
        """One name per exhibit: ``python -m repro <name>`` prints
        ``results/<name>.txt``."""
        [commands] = [
            action.choices for action in build_parser()._actions
            if isinstance(action, argparse._SubParsersAction)
        ]
        stems = {path.stem for path in RESULTS.glob("*.txt")}
        assert len(EXHIBITS) == 13
        assert set(commands) - {"list", "run"} == set(EXHIBITS) == stems

    @pytest.mark.parametrize("argv, message", [
        (["fig_multiprog", "--benchmarks", "gzip"],
         "fig_multiprog co-schedules 2-4 benchmarks, got 1: gzip"),
        (["fig_multiprog", "--benchmarks", "gzip,swim,vpr,mgrid,djpeg"],
         "fig_multiprog co-schedules 2-4 benchmarks, got 5: "
         "gzip,swim,vpr,mgrid,djpeg"),
        (["fig_resilience", "--benchmarks", "gzip,swim"],
         "fig_resilience takes exactly one carrier benchmark, got 2: gzip,swim"),
        (["table3", "--timeout", "-1"], "timeout must be positive, got -1.0"),
        (["figure3", "--benchmarks", "gzip,gzpi"], "unknown benchmark 'gzpi'"),
    ])
    def test_bad_argument_fails_before_any_run(
        self, argv, message, capsys, monkeypatch
    ):
        from repro.experiments.sweep import SweepRunner

        def no_runs(self, specs):
            raise AssertionError("a run started")

        monkeypatch.setattr(SweepRunner, "run", no_runs)
        assert main(argv + ["--no-cache"]) == 2
        captured = capsys.readouterr()
        assert message in captured.err
        assert captured.out == ""


class TestHelpText:
    """The top-level help must advertise every subsystem (regression:
    it silently omitted the sweep flags)."""

    def test_epilog_mentions_sweep_flags(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["--help"])
        out = capsys.readouterr().out
        for flag in ("--jobs", "--no-cache", "--timeout", "--metrics-json",
                     "--journal", "--resume", "--trace", "--backend"):
            assert flag in out, f"top-level help must mention {flag}"
        for doc in ("docs/SWEEPS.md", "docs/OBSERVABILITY.md",
                    "docs/MULTIPROG.md", "docs/ARCHITECTURE.md"):
            assert doc in out

    def test_subcommand_help_documents_trace(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["figure3", "--help"])
        assert "sweep_trace.json" in capsys.readouterr().out


class TestFaultReporting:
    def test_failed_run_exits_nonzero_with_failure_table(
        self, capsys, monkeypatch
    ):
        """An exhibit with a hole in its matrix must not render: the CLI
        prints the failure table to stderr and exits 1."""
        from tests.experiments.injection import fail, inject_into_runs

        inject_into_runs(monkeypatch, "gzip", fail)
        rc = main(["figure3", "--benchmarks", "gzip", "--length", "4000",
                   "--jobs", "1", "--no-cache"])
        assert rc == 1
        captured = capsys.readouterr()
        assert "Figure 3" not in captured.out  # no partial exhibit rendered
        assert "Sweep failures" in captured.err
        assert "gzip" in captured.err and "InjectedFailure" in captured.err

    def test_journal_resume_round_trip(self, capsys, tmp_path):
        journal = tmp_path / "figure3.jsonl"
        args = ["figure3", "--benchmarks", "gzip", "--length", "4000",
                "--jobs", "1", "--no-cache", "--journal", str(journal)]
        assert main(args) == 0
        capsys.readouterr()
        assert journal.exists()
        assert main(args + ["--resume"]) == 0
        captured = capsys.readouterr()
        assert "Figure 3" in captured.out  # journal hits still render fully
        assert "resumed from journal" in captured.err
