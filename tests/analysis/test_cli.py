"""The ``python -m repro.analysis`` front end: formats and exit codes."""

import json
import subprocess
import sys

import pytest

from repro.analysis.cli import main

from .conftest import REPO_ROOT

DIRTY = """
import random

def pick():
    return random.random()
"""

CLEAN = """
import random

def pick(seed):
    return random.Random(seed).random()
"""


@pytest.fixture
def dirty_tree(make_tree):
    return make_tree({"repro/pipeline/p.py": DIRTY})


@pytest.fixture
def clean_tree(make_tree):
    return make_tree({"repro/pipeline/p.py": CLEAN})


def run_cli(capsys, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out


class TestExitCodesAndFormats:
    def test_clean_tree_exits_zero(self, clean_tree, capsys):
        code, out = run_cli(capsys, clean_tree, "--root", clean_tree)
        assert code == 0
        assert "0 finding(s)" in out

    def test_findings_exit_one_with_location(self, dirty_tree, capsys):
        code, out = run_cli(capsys, dirty_tree, "--root", dirty_tree,
                            "--select", "D101")
        assert code == 1
        assert "repro/pipeline/p.py:5:11: D101" in out

    def test_json_format(self, dirty_tree, capsys):
        code, out = run_cli(capsys, dirty_tree, "--root", dirty_tree,
                            "--format", "json")
        assert code == 1
        payload = json.loads(out)
        assert payload["ok"] is False
        assert payload["counts"] == {"D101": 1}
        finding = payload["findings"][0]
        assert finding["rule"] == "D101"
        assert finding["path"] == "repro/pipeline/p.py"
        assert finding["line"] == 5

    def test_missing_path_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main([str(tmp_path / "does-not-exist")])
        assert exc.value.code == 2

    def test_list_rules(self, capsys):
        code, out = run_cli(capsys, "--list-rules")
        assert code == 0
        listed = [line.split()[0] for line in out.splitlines()]
        assert listed == ["D101", "D102", "D103", "D104", "D105",
                          "L201", "S302", "S303", "S304"]

    def test_retired_modes_rejected(self):
        for argv in (["--changed"], ["--base", "main"], ["--no-baseline"],
                     ["--baseline", "b.json"], ["--write-baseline"],
                     ["--format", "sarif"]):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2, argv


class TestSuppressionDisplay:
    def test_show_suppressed_lists_them(self, make_tree, capsys):
        tree = make_tree({
            "repro/pipeline/p.py": DIRTY.replace(
                "random.random()", "random.random()  # repro: allow[D101]"
            ),
        })
        code, out = run_cli(capsys, tree, "--root", tree,
                            "--show-suppressed")
        assert code == 0
        assert "1 suppressed" in out
        assert "D101" in out


class TestRealTree:
    def test_shipping_tree_is_clean(self, capsys):
        paths = [REPO_ROOT / p for p in ("src", "benchmarks", "examples")
                 if (REPO_ROOT / p).exists()]
        code, out = run_cli(capsys, *paths, "--root", REPO_ROOT)
        assert code == 0, out

    def test_module_entry_point(self, tmp_path):
        """``python -m repro.analysis`` works as a subprocess (the CI spelling)."""
        pkg = tmp_path / "repro" / "pipeline"
        pkg.mkdir(parents=True)
        for d in (tmp_path / "repro", pkg):
            (d / "__init__.py").write_text("")
        (pkg / "p.py").write_text(DIRTY)
        proc = subprocess.run(
            [sys.executable, "-m", "repro.analysis", str(tmp_path),
             "--root", str(tmp_path), "--format", "json"],
            capture_output=True, text=True,
            env={"PYTHONPATH": str(REPO_ROOT / "src"), "PATH": "/usr/bin:/bin"},
        )
        assert proc.returncode == 1, proc.stderr
        payload = json.loads(proc.stdout)
        assert payload["counts"] == {"D101": 1}
