"""Parsed views of the files under analysis.

:class:`FileContext` is one parsed source file: AST, source lines,
resolved dotted module name (when the file sits inside the ``repro``
package), per-line suppressions, and the file's import map (local name ->
dotted origin) so rules can resolve what ``simulate`` refers to.

:class:`ProjectContext` is the whole run: every file context plus the
intra-``repro`` import graph and the facade vocabulary extracted from
``repro/api.py`` / ``repro/workloads/profiles.py``.
"""

from __future__ import annotations

import ast
import pathlib
import re
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

#: ``# repro: allow[D101]`` or ``# repro: allow[D101,S302]`` or bare
#: ``# repro: allow`` (suppresses every rule on that line); an optional
#: ``-- reason`` trailer documents why.
_SUPPRESS_RE = re.compile(
    r"#\s*repro:\s*allow(?:\[(?P<rules>[A-Z0-9,\s]*)\])?(?:\s*--.*)?"
)

PACKAGE_NAME = "repro"


def module_name_for(path: pathlib.Path) -> Optional[str]:
    """Dotted module name if ``path`` lies inside a ``repro`` package.

    Walks up from the file while ``__init__.py`` siblings exist; returns
    e.g. ``repro.clusters.steering`` or ``None`` for loose scripts
    (benchmarks, examples).  Works on any tree that contains a directory
    literally named ``repro`` with an ``__init__.py`` — which is what lets
    the test suite analyse synthetic package fixtures.
    """
    path = path.resolve()
    parts = [path.stem] if path.name != "__init__.py" else []
    current = path.parent
    while (current / "__init__.py").exists():
        parts.insert(0, current.name)
        if current.name == PACKAGE_NAME:
            return ".".join(parts)
        current = current.parent
    return None


@dataclass
class ImportEdge:
    """One import statement resolved to an absolute dotted target."""

    target: str  #: absolute dotted module/attribute path imported
    lineno: int
    col: int


@dataclass
class FileContext:
    """One parsed source file and everything rules need to know about it."""

    path: pathlib.Path
    display_path: str
    source: str
    tree: ast.AST
    module: Optional[str] = None
    #: line -> set of suppressed rule ids ("*" means all)
    suppressions: Dict[int, Set[str]] = field(default_factory=dict)
    #: resolved import edges (absolute dotted targets)
    imports: List[ImportEdge] = field(default_factory=list)
    #: local binding -> absolute dotted origin (``simulate`` ->
    #: ``repro.api.simulate``; ``np`` -> ``numpy``)
    import_map: Dict[str, str] = field(default_factory=dict)

    @property
    def module_head(self) -> Optional[str]:
        """First component under ``repro`` (``repro.core.phase`` -> ``core``;
        ``repro`` itself -> ``__init__``)."""
        if self.module is None:
            return None
        parts = self.module.split(".")
        return parts[1] if len(parts) > 1 else "__init__"

    def is_suppressed(self, line: int, rule_id: str) -> bool:
        rules = self.suppressions.get(line)
        if not rules:
            return False
        return "*" in rules or rule_id in rules

    def resolve_name(self, node: ast.AST) -> Optional[str]:
        """Absolute dotted path of a Name/Attribute expression, if known.

        ``random.random`` -> ``random.random`` (module import),
        ``np.random.rand`` -> ``numpy.random.rand``,
        ``simulate`` -> ``repro.api.simulate`` (from-import).
        """
        parts: List[str] = []
        while isinstance(node, ast.Attribute):
            parts.insert(0, node.attr)
            node = node.value
        if not isinstance(node, ast.Name):
            return None
        origin = self.import_map.get(node.id)
        if origin is None:
            return None
        return ".".join([origin] + parts)


def parse_suppressions(source: str) -> Dict[int, Set[str]]:
    """Per-line suppression table from ``# repro: allow[...]`` comments."""
    table: Dict[int, Set[str]] = {}
    for lineno, line in enumerate(source.splitlines(), start=1):
        if "#" not in line or "repro:" not in line:
            continue
        match = _SUPPRESS_RE.search(line)
        if not match:
            continue
        rules = match.group("rules")
        if rules is None:
            table[lineno] = {"*"}
        else:
            ids = {r.strip() for r in rules.split(",") if r.strip()}
            table[lineno] = ids or {"*"}
    return table


def _resolve_relative(
    module: Optional[str], node: ast.ImportFrom, is_package: bool
) -> Optional[str]:
    """Absolute dotted base for a (possibly relative) ``from`` import."""
    if node.level == 0:
        return node.module
    if module is None:
        return None  # relative import in a loose script: unresolvable
    # Level 1 resolves against the containing package: for a plain module
    # that is module-minus-stem; an ``__init__.py`` *is* its package.
    parts = module.split(".")
    anchor = parts if is_package else parts[:-1]
    drop = node.level - 1
    if drop > len(anchor):
        return None
    base = anchor[: len(anchor) - drop]
    if node.module:
        base = base + node.module.split(".")
    return ".".join(base) if base else None


def extract_imports(
    tree: ast.AST, module: Optional[str], is_package: bool = False
) -> Tuple[List[ImportEdge], Dict[str, str]]:
    """All import edges (absolute targets) plus the local binding map."""
    edges: List[ImportEdge] = []
    bindings: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                local = alias.asname or alias.name.split(".")[0]
                target = alias.name if alias.asname else alias.name.split(".")[0]
                edges.append(ImportEdge(alias.name, node.lineno, node.col_offset))
                bindings[local] = target
        elif isinstance(node, ast.ImportFrom):
            base = _resolve_relative(module, node, is_package)
            if base is None:
                continue
            for alias in node.names:
                target = f"{base}.{alias.name}" if alias.name != "*" else base
                local = alias.asname or alias.name
                edges.append(ImportEdge(target, node.lineno, node.col_offset))
                if alias.name != "*":
                    bindings[local] = target
    return edges, bindings


def build_file_context(
    path: pathlib.Path, display_path: str
) -> "FileContext":
    """Parse one file into a :class:`FileContext`.

    Raises ``SyntaxError`` — the runner converts that into a finding so a
    file that cannot parse fails the lint instead of silently passing.
    """
    source = path.read_text(encoding="utf-8")
    tree = ast.parse(source, filename=str(path))
    module = module_name_for(path)
    edges, bindings = extract_imports(
        tree, module, is_package=path.name == "__init__.py"
    )
    return FileContext(
        path=path,
        display_path=display_path,
        source=source,
        tree=tree,
        module=module,
        suppressions=parse_suppressions(source),
        imports=edges,
        import_map=bindings,
    )


@dataclass
class ProjectContext:
    """The whole analysed file set plus cross-file derived data."""

    files: List[FileContext]
    #: facade vocabulary (None when repro/api.py is not locatable)
    vocabulary: Optional["Vocabulary"] = None

    def repro_files(self) -> List[FileContext]:
        return [f for f in self.files if f.module is not None]

    def find_module(self, dotted: str) -> Optional[FileContext]:
        for f in self.files:
            if f.module == dotted:
                return f
        return None


@dataclass
class Vocabulary:
    """The ``repro.api`` keyword vocabulary, extracted statically."""

    simspec_fields: Set[str] = field(default_factory=set)
    sweep_keywords: Set[str] = field(default_factory=set)
    topologies: Set[str] = field(default_factory=set)
    policies: Set[str] = field(default_factory=set)
    workloads: Set[str] = field(default_factory=set)
