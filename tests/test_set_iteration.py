"""No simulator package loops over a set whose order can change.

CPython iterates a set in hash-table order.  Strings hash differently
under each ``PYTHONHASHSEED`` and objects hash by address, so a loop over
a set of either can run in a different order in every interpreter.
``tests/test_determinism.py`` sees such a loop only when one of its two
hash seeds flips the order on a path it runs: ring routing that breaks
distance ties by looping over ``{"cw", "ccw"}`` keeps the right order
under seeds 1 and 2 and passes there.  So this rule (D103) stays a source
check.  Integers hash to themselves, so a set annotated ``Set[int]``
iterates in the same order everywhere and may be looped over; iterate
``sorted(...)`` over any other set.
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "repro"

#: the packages that compute simulated cycles
SIMULATOR_PACKAGES = (
    "pipeline", "clusters", "interconnect", "memory", "core", "multiprog",
)


def _bound_name(node):
    """``x`` or ``self.x``; ``None`` for any other expression."""
    if isinstance(node, ast.Name):
        return node.id
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return f"self.{node.attr}"
    return None


def _builds_a_set(node):
    return isinstance(node, (ast.Set, ast.SetComp)) or (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in ("set", "frozenset")
    )


def set_loops(path):
    """Line of every loop or comprehension over a set not of ints."""
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    sets, int_sets = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.AnnAssign):
            annotation = ast.unparse(node.annotation)
            if annotation.split("[")[0].split(".")[-1].lower() in ("set", "frozenset"):
                named = int_sets if annotation.endswith("[int]") else sets
                named.add(_bound_name(node.target))
        elif isinstance(node, ast.Assign) and _builds_a_set(node.value):
            sets.update(_bound_name(target) for target in node.targets)
    sets -= int_sets | {None}
    for node in ast.walk(tree):
        if isinstance(node, ast.For):
            loops = [node.iter]
        elif isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp, ast.DictComp)):
            loops = [generator.iter for generator in node.generators]
        else:
            continue
        for loop in loops:
            if _builds_a_set(loop) or _bound_name(loop) in sets:
                yield loop.lineno


def test_no_simulator_loop_over_an_unordered_set():
    offenders = [
        f"{path}:{line}"
        for package in SIMULATOR_PACKAGES
        for path in sorted((SRC / package).rglob("*.py"))
        for line in set_loops(path)
    ]
    assert offenders == [], "iterate sorted(...) instead:\n" + "\n".join(offenders)


def test_loops_over_string_sets_are_found(tmp_path):
    module = tmp_path / "ring.py"
    module.write_text(
        "from typing import Set\n"
        "class Ring:\n"
        "    def __init__(self):\n"
        "        self.dead: Set[int] = set()\n"
        "        self.names = set()\n"
        "    def route(self, hops):\n"
        "        for direction in {'cw', 'ccw'}:\n"
        "            pass\n"
        "        live = [name for name in self.names]\n"
        "        for link in self.dead:\n"
        "            pass\n"
        "        return sorted(self.names), live\n"
    )
    assert list(set_loops(module)) == [7, 9]
