"""Mutation self-tests: seeded defects in the *real* tree must fail the lint.

Each test copies ``src/repro`` into a scratch dir, plants exactly the bug
class a rule pack exists to catch, and asserts the analyzer's exit flips
to 1 — proving the packs bite on the shipping code, not just on synthetic
fixtures.  (``tmp_path/repro`` keeps the directory literally named
``repro`` so module-name resolution works unchanged.)
"""

import shutil

import pytest

from repro.analysis.cli import main

from .conftest import REPO_ROOT


@pytest.fixture
def mutated_tree(tmp_path):
    """Copy the real package and return (root, patch) helpers."""
    shutil.copytree(REPO_ROOT / "src" / "repro", tmp_path / "repro")

    def patch(relative, old, new):
        path = tmp_path / "repro" / relative
        source = path.read_text()
        assert old in source, f"mutation anchor vanished from {relative}"
        path.write_text(source.replace(old, new, 1))

    return tmp_path, patch


def run(root, select):
    return main(
        [
            str(root / "repro"),
            "--root",
            str(root),
            "--no-baseline",
            "--select",
            select,
        ]
    )


def test_unmutated_copy_is_clean(mutated_tree, capsys):
    root, _ = mutated_tree
    assert run(root, "C,P,K") == 0, capsys.readouterr().out


def test_field_deleted_from_cache_key_fails_k601(mutated_tree, capsys):
    root, patch = mutated_tree
    patch(
        "experiments/sweep.py",
        'f"seed={self.seed}",',
        "",
    )
    assert run(root, "K") == 1
    assert "K601" in capsys.readouterr().out


def test_unfrozen_run_spec_fails_p502(mutated_tree, capsys):
    root, patch = mutated_tree
    patch(
        "experiments/sweep.py",
        "@dataclass(frozen=True)\nclass RunSpec:",
        "@dataclass\nclass RunSpec:",
    )
    assert run(root, "P") == 1
    out = capsys.readouterr().out
    assert "P502" in out and "RunSpec" in out
