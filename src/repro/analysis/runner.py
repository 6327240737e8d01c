"""Orchestration: collect files, run rules, apply suppressions."""

from __future__ import annotations

import pathlib
from dataclasses import dataclass, field
from typing import Iterable, List, Optional, Sequence

from .context import FileContext, ProjectContext, build_file_context
from .findings import Finding
from .registry import select_rules
from .vocab import build_vocabulary

#: directories never descended into
_SKIP_DIRS = {
    ".git", "__pycache__", ".mypy_cache", ".ruff_cache", ".pytest_cache",
    ".venv", "venv", "build", "dist", ".eggs",
}


def collect_files(paths: Sequence[pathlib.Path]) -> List[pathlib.Path]:
    """Every ``.py`` file under ``paths`` (files are taken verbatim)."""
    out: List[pathlib.Path] = []
    for path in paths:
        if path.is_file():
            out.append(path)
            continue
        for sub in sorted(path.rglob("*.py")):
            if not any(part in _SKIP_DIRS for part in sub.parts):
                out.append(sub)
    return out


def _display_path(path: pathlib.Path, root: Optional[pathlib.Path]) -> str:
    """Stable repo-relative spelling for findings and baselines."""
    resolved = path.resolve()
    if root is not None:
        try:
            return resolved.relative_to(root.resolve()).as_posix()
        except ValueError:
            pass
    return path.as_posix()


@dataclass
class AnalysisResult:
    """Everything one analysis run produced."""

    findings: List[Finding] = field(default_factory=list)
    #: findings silenced by ``# repro: allow`` comments
    suppressed: List[Finding] = field(default_factory=list)
    files_scanned: int = 0
    parse_errors: int = 0

    @property
    def ok(self) -> bool:
        return not self.findings


def analyze_paths(
    paths: Sequence[pathlib.Path],
    *,
    root: Optional[pathlib.Path] = None,
    select: Iterable[str] = (),
    ignore: Iterable[str] = (),
) -> AnalysisResult:
    """Run the registered rules over every Python file under ``paths``.

    ``root`` anchors the repo-relative display paths (defaults to the
    current directory).  ``select``/``ignore`` filter rules by id or
    family prefix.  Suppressed findings are returned separately so the CLI
    can report them.
    """
    if root is None:
        root = pathlib.Path.cwd()
    result = AnalysisResult()
    contexts: List[FileContext] = []
    for path in collect_files(list(paths)):
        display = _display_path(path, root)
        try:
            contexts.append(build_file_context(path, display))
        except (SyntaxError, UnicodeDecodeError) as exc:
            result.parse_errors += 1
            lineno = getattr(exc, "lineno", None) or 1
            result.findings.append(
                Finding(
                    path=display,
                    line=lineno,
                    col=0,
                    rule="P000",
                    message=f"file does not parse: {exc}",
                )
            )
    result.files_scanned = len(contexts)

    project = ProjectContext(files=contexts)
    project.vocabulary = build_vocabulary(project)

    raw: List[Finding] = []
    for rule_cls in select_rules(select, ignore):
        rule = rule_cls()
        rule.project = project  # file rules that need cross-file data
        if rule.scope == "project":
            raw.extend(rule.check(project))
        else:
            for ctx in contexts:
                raw.extend(rule.check(ctx))

    by_path = {ctx.display_path: ctx for ctx in contexts}
    for finding in sorted(raw):
        ctx = by_path.get(finding.path)
        if ctx is not None and ctx.is_suppressed(finding.line, finding.rule):
            result.suppressed.append(finding)
        else:
            result.findings.append(finding)
    result.findings.sort()
    return result
