"""Pluggable rule registry.

A rule is a class with a ``RULE_ID`` (family prefix — ``D`` determinism,
``L`` layering, ``S`` facade vocabulary and schema — plus a number), a
one-line ``RULE_DOC``, and a ``check`` method.  Two granularities exist:

* **file rules** (``scope = "file"``) — ``check(file_ctx)`` is called once
  per parsed source file and yields :class:`~.findings.Finding`s.
* **project rules** (``scope = "project"``) — ``check(project_ctx)`` is
  called once per run with the whole file set (import graph, cross-file
  consistency).

Register with the :func:`register_rule` decorator; ``python -m
repro.analysis --list-rules`` prints the catalogue.  Adding a rule is:
write the class, decorate it, add fixtures to ``tests/analysis`` — the CLI
picks it up automatically.
"""

from __future__ import annotations

import re
from typing import Dict, Iterable, Iterator, List, Type

from .findings import Finding

_RULE_ID_RE = re.compile(r"^[DLS]\d{3}$")


class Rule:
    """Base class for analysis rules (subclass and override :meth:`check`)."""

    RULE_ID: str = ""
    RULE_DOC: str = ""
    #: "file" or "project"
    scope: str = "file"

    def check(self, ctx) -> Iterator[Finding]:  # pragma: no cover - interface
        raise NotImplementedError

    def finding(self, ctx, node, message: str, **detail) -> Finding:
        """A :class:`Finding` at ``node``'s location in ``ctx``'s file."""
        return Finding(
            path=ctx.display_path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            rule=self.RULE_ID,
            message=message,
            detail=detail,
        )


_REGISTRY: Dict[str, Type[Rule]] = {}


def register_rule(cls: Type[Rule]) -> Type[Rule]:
    """Class decorator adding ``cls`` to the global rule registry."""
    if not _RULE_ID_RE.match(cls.RULE_ID):
        raise ValueError(
            f"rule id {cls.RULE_ID!r} must match D/L/S + three digits"
        )
    if cls.RULE_ID in _REGISTRY and _REGISTRY[cls.RULE_ID] is not cls:
        raise ValueError(f"duplicate rule id {cls.RULE_ID}")
    if cls.scope not in ("file", "project"):
        raise ValueError(f"rule {cls.RULE_ID}: unknown scope {cls.scope!r}")
    _REGISTRY[cls.RULE_ID] = cls
    return cls


def all_rules() -> List[Type[Rule]]:
    """Every registered rule class, sorted by rule id."""
    _load_builtin_rules()
    return [_REGISTRY[rule_id] for rule_id in sorted(_REGISTRY)]


def select_rules(
    select: Iterable[str] = (), ignore: Iterable[str] = ()
) -> List[Type[Rule]]:
    """The registered rules filtered by ``--select`` / ``--ignore`` ids.

    A selector may be a full id (``D101``) or a family prefix (``D``).
    """
    chosen = all_rules()
    select = tuple(select)
    ignore = tuple(ignore)
    if select:
        chosen = [r for r in chosen if _matches(r.RULE_ID, select)]
    if ignore:
        chosen = [r for r in chosen if not _matches(r.RULE_ID, ignore)]
    return chosen


def _matches(rule_id: str, selectors: Iterable[str]) -> bool:
    return any(rule_id == s or rule_id.startswith(s) for s in selectors)


_loaded = False


def _load_builtin_rules() -> None:
    """Import the built-in rule modules (registration is a side effect)."""
    global _loaded
    if _loaded:
        return
    _loaded = True
    from . import rules_determinism, rules_layering, rules_stats  # noqa: F401
