"""The import direction of the package: every ``repro`` import goes down.

``LAYER_RANKS`` ranks each top-level component (lower is more
fundamental; ``docs/ARCHITECTURE.md`` says what each one is).  A module
may import only components of strictly lower rank, so an up-stack import
and one between same-rank siblings both fail, in any spelling: absolute
or relative, at module level or inside a function (laziness changes when
a cycle bites, not whether the layering holds).  The package root
re-exports everything and is exempt.  Every module is parsed, so a file
that does not parse fails here too.
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "repro"

#: top-level component of ``repro`` -> layer rank
LAYER_RANKS = {
    "errors": 0, "timing": 0, "_version": 0,
    "stats": 1, "config": 1, "resilience": 1, "observability": 1,
    "workloads": 2, "energy": 2,
    "frontend": 3, "clusters": 3, "interconnect": 3,
    # the decentralized cache routes bank transfers over the cluster network
    "memory": 4,
    "pipeline": 5,
    "core": 6, "multiprog": 6,
    "experiments": 7,
    "api": 8, "partition": 8,
    "cli": 9,
}
ROOT = ("__init__", "__main__")


def repro_imports(path, package_dir=SRC):
    """``(line, component)`` for every import of a ``repro`` component."""
    module = ("repro",) + path.relative_to(package_dir).with_suffix("").parts
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.Import):
            targets = [alias.name.split(".") for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = list(module[: len(module) - node.level]) if node.level else []
            base += node.module.split(".") if node.module else []
            targets = [base + [alias.name] for alias in node.names]
        else:
            continue
        for target in targets:
            if target[0] == "repro":
                yield node.lineno, target[1] if len(target) > 1 else "__init__"


def test_every_import_goes_down_the_stack():
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        head = pathlib.Path(path.relative_to(SRC).parts[0]).stem
        imports = list(repro_imports(path))  # parses the root modules too
        if head in ROOT:
            continue
        rank = LAYER_RANKS.get(head)
        if rank is None:
            offenders.append(f"{path}: repro.{head} has no rank")
            continue
        for line, target in imports:
            target_rank = LAYER_RANKS.get(target)
            if target != head and (target_rank is None or target_rank >= rank):
                offenders.append(
                    f"{path}:{line}: repro.{head} (rank {rank}) imports "
                    f"repro.{target} (rank {target_rank})"
                )
    assert offenders == [], "\n".join(offenders)


def test_every_import_spelling_is_resolved(tmp_path):
    module = tmp_path / "repro" / "pipeline" / "stage.py"
    module.parent.mkdir(parents=True)
    module.write_text(
        "import os\n"
        "import repro.stats\n"
        "from repro import api\n"
        "from . import rob\n"
        "from ..memory.lsq import Lsq\n"
        "def build():\n"
        "    from ..experiments import sweep\n"
    )
    assert list(repro_imports(module, tmp_path / "repro")) == [
        (2, "stats"), (3, "api"), (4, "pipeline"), (5, "memory"),
        (7, "experiments"),
    ]
