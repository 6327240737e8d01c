"""S-rules: facade-vocabulary validation and trace-schema coverage.

A 20-minute sweep should never die — or worse, silently run a default —
because of a typo'd keyword or benchmark name that lint could have caught
(S302/S303).  The trace-event schema is downstream consumers' contract,
so every kind it declares must be exercised by the ``validate_event``
tests (S304).
"""

from __future__ import annotations

import ast
import pathlib
import re
from typing import Dict, Iterator, List, Optional

from .context import FileContext, ProjectContext
from .findings import Finding
from .registry import Rule, register_rule

_STATIC_POLICY_RE = re.compile(r"^static-\d+$")


#: call targets validated against the SimSpec field vocabulary; the
#: values are extra keywords that particular callable also accepts
_SPEC_CALLS = {
    "repro.api.SimSpec": frozenset(),
    "repro.SimSpec": frozenset(),
    # trace= (a Tracer or an export directory) is simulate-only, not a
    # SimSpec field (tracers are stateful and unpicklable by design);
    # arbiter=/epoch_cycles=/drain_cycles= select the multiprogrammed arm
    # (tuple-of-profiles workloads -> MultiProgSpec fields)
    "repro.api.simulate": frozenset(
        {"trace", "arbiter", "epoch_cycles", "drain_cycles"}
    ),
    "repro.simulate": frozenset(
        {"trace", "arbiter", "epoch_cycles", "drain_cycles"}
    ),
}

_SWEEP_CALLS = ("repro.api.sweep", "repro.sweep")


@register_rule
class UnknownKeywordRule(Rule):
    """S302: unknown keyword in a ``SimSpec``/``simulate``/``sweep`` call."""

    RULE_ID = "S302"
    RULE_DOC = (
        "keyword not in the repro.api vocabulary; it would raise (or be "
        "silently absorbed) only after the sweep starts"
    )
    scope = "file"

    #: set by the runner before file rules execute
    project: Optional[ProjectContext] = None

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        vocab = self.project.vocabulary if self.project else None
        if vocab is None or not vocab.simspec_fields:
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            dotted = ctx.resolve_name(node.func)
            if dotted is None:
                continue
            if dotted in _SPEC_CALLS:
                allowed = vocab.simspec_fields | _SPEC_CALLS[dotted]
                kind = dotted.rsplit(".", 1)[-1]
            elif dotted in _SWEEP_CALLS and vocab.sweep_keywords:
                allowed = vocab.sweep_keywords
                kind = "sweep"
            else:
                continue
            for kw in node.keywords:
                if kw.arg is None:  # **splat: cannot judge statically
                    continue
                if kw.arg not in allowed:
                    yield self.finding(
                        ctx, kw.value,
                        f"unknown keyword {kw.arg!r} in {kind}() call; "
                        f"the vocabulary is {sorted(allowed)}",
                        keyword=kw.arg,
                        callee=dotted,
                    )


@register_rule
class VocabularyLiteralRule(Rule):
    """S303: invalid topology/policy/workload string literal.

    A misspelled ``topology="gird"`` raises only once the spec reaches a
    worker; a misspelled benchmark name can select a default profile in
    older call paths.  Both are knowable from the source.
    """

    RULE_ID = "S303"
    RULE_DOC = (
        "string literal outside the facade vocabulary (topology/"
        "reconfig_policy/workload)"
    )
    scope = "file"

    project: Optional[ProjectContext] = None

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        vocab = self.project.vocabulary if self.project else None
        if vocab is None:
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            dotted = ctx.resolve_name(node.func)
            if dotted not in _SPEC_CALLS:
                continue
            for kw in node.keywords:
                value = kw.value
                if not (
                    isinstance(value, ast.Constant)
                    and isinstance(value.value, str)
                ):
                    continue
                text = value.value
                if kw.arg == "topology" and vocab.topologies:
                    if text not in vocab.topologies:
                        yield self.finding(
                            ctx, value,
                            f"unknown topology {text!r}; choose from "
                            f"{sorted(vocab.topologies)}",
                            value=text,
                        )
                elif kw.arg == "reconfig_policy" and vocab.policies:
                    if text not in vocab.policies and not _STATIC_POLICY_RE.match(
                        text
                    ):
                        yield self.finding(
                            ctx, value,
                            f"unknown reconfig_policy {text!r}; choose from "
                            f"{sorted(vocab.policies)} or 'static-<n>'",
                            value=text,
                        )
                elif kw.arg == "workload" and vocab.workloads:
                    if text not in vocab.workloads:
                        yield self.finding(
                            ctx, value,
                            f"unknown workload {text!r}; profiles are "
                            f"{sorted(vocab.workloads)}",
                            value=text,
                        )
            # first positional argument of simulate()/SimSpec() is the
            # workload; validate string-literal spellings there too
            if node.args and vocab.workloads:
                first = node.args[0]
                if (
                    isinstance(first, ast.Constant)
                    and isinstance(first.value, str)
                    and first.value not in vocab.workloads
                ):
                    yield self.finding(
                        ctx, first,
                        f"unknown workload {first.value!r}; profiles are "
                        f"{sorted(vocab.workloads)}",
                        value=first.value,
                    )


@register_rule
class EventSchemaCoverageRule(Rule):
    """S304: every trace-event kind must be covered by validate_event tests.

    ``EVENT_FIELDS`` in ``repro/observability/events.py`` is the schema
    contract for every downstream trace consumer.  A kind counts as
    covered when a test file that exercises ``validate_event`` either
    names the kind literally or iterates ``EVENT_FIELDS`` itself (the
    exhaustive parametrized form — new kinds are then covered by
    construction, and this rule guards the exhaustive test's existence).

    The test tree is located relative to the *repository root* (walking
    up from ``events.py``), not the analysed path set, because CI lints
    only ``src``/``benchmarks``/``examples``.
    """

    RULE_ID = "S304"
    RULE_DOC = (
        "event kind declared in EVENT_FIELDS but never exercised by the "
        "validate_event tests; the schema contract is untested"
    )
    scope = "project"

    def check(self, project: ProjectContext) -> Iterator[Finding]:
        ctx = project.find_module("repro.observability.events")
        if ctx is None:
            return
        table, kinds = self._event_kinds(ctx)
        if table is None or not kinds:
            return
        sources = self._validate_event_test_sources(ctx.path)
        if not sources:
            yield self.finding(
                ctx, table,
                "no test file under tests/ exercises validate_event; the "
                f"{len(kinds)} declared event kinds are untested",
            )
            return
        generic = any("EVENT_FIELDS" in source for source in sources)
        for kind in sorted(kinds):
            if generic or any(f'"{kind}"' in s or f"'{kind}'" in s
                              for s in sources):
                continue
            yield self.finding(
                ctx, kinds[kind],
                f"event kind {kind!r} is not covered by any validate_event "
                "test (no literal mention, and no test iterates "
                "EVENT_FIELDS exhaustively)",
                kind=kind,
            )

    @staticmethod
    def _event_kinds(ctx: FileContext):
        """The ``EVENT_FIELDS`` assignment node and its kind -> key nodes."""
        for node in ast.walk(ctx.tree):
            targets = []
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                targets = [node.target]
            if not any(
                isinstance(t, ast.Name) and t.id == "EVENT_FIELDS"
                for t in targets
            ):
                continue
            value = node.value
            if not isinstance(value, ast.Dict):
                continue
            kinds: Dict[str, ast.AST] = {}
            for key in value.keys:
                if isinstance(key, ast.Constant) and isinstance(
                    key.value, str
                ):
                    kinds[key.value] = key
            return node, kinds
        return None, {}

    @staticmethod
    def _validate_event_test_sources(events_path: pathlib.Path) -> List[str]:
        """Source text of every tests/**/*.py mentioning validate_event."""
        for parent in events_path.resolve().parents:
            tests = parent / "tests"
            if tests.is_dir():
                break
        else:
            return []
        sources = []
        for path in sorted(tests.rglob("*.py")):
            try:
                text = path.read_text(encoding="utf-8")
            except OSError:  # pragma: no cover - unreadable test file
                continue
            if "validate_event" in text:
                sources.append(text)
        return sources
