"""The finding record every rule emits, plus its JSON spelling."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict


@dataclass(frozen=True, order=True)
class Finding:
    """One rule violation at one source location.

    ``path`` is repo-relative (or as given on the command line) so findings
    are stable across machines; ``line``/``col`` are 1-based/0-based to
    match compiler convention.  ``detail`` carries rule-specific context
    (e.g. the unknown keyword) for the JSON output.
    """

    path: str
    line: int
    col: int
    rule: str
    message: str
    detail: Dict[str, Any] = field(default_factory=dict, compare=False)

    def location(self) -> str:
        return f"{self.path}:{self.line}:{self.col}"

    def render(self) -> str:
        return f"{self.location()}: {self.rule} {self.message}"

    def to_json(self) -> Dict[str, Any]:
        payload: Dict[str, Any] = {
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "rule": self.rule,
            "message": self.message,
        }
        if self.detail:
            payload["detail"] = self.detail
        return payload
