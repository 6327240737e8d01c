"""K-rules: cache-key completeness for the content-addressed result cache.

``RunSpec.cache_key()`` is the identity of a simulation result: any
*semantic* spec field missing from it makes two different runs share one
cache entry — every per-run number right, every cached exhibit silently
wrong (the same bug class S301 proves away for stats merging).  The key
is hand-maintained, so these rules prove, statically:

* **K601** — every ``RunSpec`` field either appears as ``self.<field>``
  inside ``cache_key`` or is declared non-semantic in the in-source
  ``CACHE_KEY_EXEMPT`` allowlist; the allowlist carries no stale or
  contradictory entries; and every class reaching the key through
  ``{...!r}`` interpolation is a dataclass (a non-dataclass without its
  own ``__repr__`` would interpolate its memory address — a key that
  never matches), with ``field(repr=False)`` as the explicit per-field
  opt-out.  Because a dataclass repr includes every repr-enabled field,
  this transitively proves ``MultiProgSpec``, ``FaultSchedule``,
  ``ProcessorConfig`` (and friends) flow into the key field-by-field.
* **K602** — every ``SimSpec`` field flows into ``to_run_spec`` (read
  directly or through a ``self``-helper the dataflow layer follows), and
  every ``SweepConfig`` field is either named in the exempt list (the
  execution-policy knobs that must *never* change results) or shadows a
  key-covered ``RunSpec`` field.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Set, Tuple

from .context import FileContext, ProjectContext
from .dataflow import module_dataflow
from .findings import Finding
from .registry import Rule, register_rule
from .rules_wire import (
    SWEEP_MODULE,
    class_fields,
    field_has_flag,
    find_constant,
    is_dataclass,
    resolve_annotation_classes,
    resolve_class,
)

API_MODULE = "repro.api"


def _exemptions(ctx: FileContext) -> Dict[str, Tuple[ast.AST, Set[str]]]:
    """``CACHE_KEY_EXEMPT`` parsed: class name -> (node, field names)."""
    decl = find_constant(ctx, "CACHE_KEY_EXEMPT")
    out: Dict[str, Tuple[ast.AST, Set[str]]] = {}
    value = getattr(decl, "value", None)
    if not isinstance(value, ast.Dict):
        return out
    for key, val in zip(value.keys, value.values):
        if not (isinstance(key, ast.Constant) and isinstance(key.value, str)):
            continue
        names: Set[str] = set()
        if isinstance(val, (ast.Tuple, ast.List, ast.Set)):
            names = {
                e.value for e in val.elts
                if isinstance(e, ast.Constant) and isinstance(e.value, str)
            }
        out[key.value] = (key, names)
    return out


def _find_class(ctx: FileContext, name: str) -> Optional[ast.ClassDef]:
    for node in ast.iter_child_nodes(ctx.tree):
        if isinstance(node, ast.ClassDef) and node.name == name:
            return node
    return None


def _find_method(cls: ast.ClassDef, name: str) -> Optional[ast.AST]:
    for stmt in cls.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)) and (
            stmt.name == name
        ):
            return stmt
    return None


@register_rule
class CacheKeyCompletenessRule(Rule):
    """K601: RunSpec.cache_key covers every field; reprs are stable."""

    RULE_ID = "K601"
    RULE_DOC = (
        "RunSpec field missing from cache_key() (and not declared "
        "non-semantic), or a key-reachable type with an unstable repr"
    )
    scope = "project"

    def check(self, project: ProjectContext) -> Iterator[Finding]:
        ctx = project.find_module(SWEEP_MODULE)
        if ctx is None:
            return
        cls = _find_class(ctx, "RunSpec")
        if cls is None:
            return
        fields = class_fields(cls)
        method = _find_method(cls, "cache_key")
        if method is None:
            yield self.finding(
                ctx, cls,
                "RunSpec has no cache_key method; the result cache "
                "cannot address its entries",
            )
            return
        flow = module_dataflow(ctx)
        covered = flow.attr_reads("RunSpec.cache_key")
        exempt_table = _exemptions(ctx)
        exempt_node, exempt = exempt_table.get("RunSpec", (None, set()))
        for name, decl in fields.items():
            if name in covered or name in exempt:
                continue
            yield self.finding(
                ctx, decl,
                f"RunSpec.{name} does not flow into cache_key() and is "
                "not declared in CACHE_KEY_EXEMPT['RunSpec']; two runs "
                "differing only in it would share a cache entry",
                field=name,
            )
        for name in sorted(exempt):
            if name not in fields:
                yield self.finding(
                    ctx, exempt_node or cls,
                    f"CACHE_KEY_EXEMPT['RunSpec'] names {name!r} but "
                    "RunSpec has no such field; remove the stale entry",
                    field=name,
                )
            elif name in covered:
                yield self.finding(
                    ctx, exempt_node or cls,
                    f"CACHE_KEY_EXEMPT['RunSpec'] declares {name!r} "
                    "non-semantic but cache_key() reads it; the "
                    "allowlist contradicts the code",
                    field=name,
                )
        yield from self._check_repr_stability(
            project, ctx, cls, fields, covered
        )

    def _check_repr_stability(self, project, ctx, cls, fields,
                              covered) -> Iterator[Finding]:
        """Every class reaching the key via ``!r`` must repr by value."""
        seen: Set[str] = set()
        queue: List[Tuple[str, str]] = []  # (dotted, via-field)
        for name in sorted(covered):
            decl = fields.get(name)
            if decl is None:
                continue
            classes, problems = resolve_annotation_classes(
                project, ctx, decl.annotation
            )
            queue.extend((dotted, name) for dotted in classes)
            for problem in problems:
                yield self.finding(
                    ctx, decl,
                    f"RunSpec.{name} reaches the cache key but its "
                    f"annotation is not statically checkable: {problem}",
                    field=name,
                )
        while queue:
            dotted, via = queue.pop(0)
            if dotted in seen:
                continue
            seen.add(dotted)
            resolved = resolve_class(project, dotted)
            if resolved is None:
                continue  # P502 reports unresolvable payload types already
            sub_ctx, sub_cls = resolved
            if not is_dataclass(sub_cls):
                if _find_method(sub_cls, "__repr__") is None:
                    yield self.finding(
                        sub_ctx, sub_cls,
                        f"{dotted} reaches the cache key via "
                        f"RunSpec.{via}!r but is not a dataclass and "
                        "defines no __repr__; the default repr embeds a "
                        "memory address, so the key would never match",
                        type=dotted,
                        via=via,
                    )
                continue
            for name, decl in class_fields(sub_cls).items():
                if field_has_flag(decl, "repr"):
                    continue  # field(repr=False): the explicit opt-out
                classes, problems = resolve_annotation_classes(
                    project, sub_ctx, decl.annotation
                )
                queue.extend((child, via) for child in classes)
                for problem in problems:
                    yield self.finding(
                        sub_ctx, decl,
                        f"{dotted}.{name} reaches the cache key via "
                        f"RunSpec.{via}!r but is not statically "
                        f"checkable: {problem}",
                        type=dotted,
                        field=name,
                    )


@register_rule
class SpecFlowRule(Rule):
    """K602: SimSpec flows into to_run_spec; SweepConfig is accounted for."""

    RULE_ID = "K602"
    RULE_DOC = (
        "SimSpec field not flowing into to_run_spec(), or SweepConfig "
        "field neither exempt nor shadowing a key-covered field"
    )
    scope = "project"

    def check(self, project: ProjectContext) -> Iterator[Finding]:
        sweep_ctx = project.find_module(SWEEP_MODULE)
        exempt_table = _exemptions(sweep_ctx) if sweep_ctx else {}
        yield from self._check_simspec(project, exempt_table)
        if sweep_ctx is not None:
            yield from self._check_sweep_config(sweep_ctx, exempt_table)

    def _check_simspec(self, project, exempt_table) -> Iterator[Finding]:
        ctx = project.find_module(API_MODULE)
        if ctx is None:
            return
        cls = _find_class(ctx, "SimSpec")
        if cls is None:
            return
        fields = class_fields(cls)
        if _find_method(cls, "to_run_spec") is None:
            yield self.finding(
                ctx, cls,
                "SimSpec has no to_run_spec method; facade sweeps cannot "
                "reach the cache at all",
            )
            return
        flow = module_dataflow(ctx)
        covered = flow.attr_reads_transitive("SimSpec", "to_run_spec")
        _, exempt = exempt_table.get("SimSpec", (None, set()))
        for name, decl in fields.items():
            if name in covered or name in exempt:
                continue
            yield self.finding(
                ctx, decl,
                f"SimSpec.{name} never flows into to_run_spec() (not "
                "even through a self-helper); sweeps would ignore it "
                "and the cache would conflate runs that differ in it",
                field=name,
            )

    def _check_sweep_config(self, ctx, exempt_table) -> Iterator[Finding]:
        cls = _find_class(ctx, "SweepConfig")
        if cls is None:
            return
        fields = class_fields(cls)
        flow = module_dataflow(ctx)
        key_covered = flow.attr_reads("RunSpec.cache_key")
        exempt_node, exempt = exempt_table.get("SweepConfig", (None, set()))
        for name, decl in fields.items():
            if name in exempt or name in key_covered:
                continue
            yield self.finding(
                ctx, decl,
                f"SweepConfig.{name} is neither declared non-semantic in "
                "CACHE_KEY_EXEMPT['SweepConfig'] nor covered by "
                "cache_key(); decide which before it ships",
                field=name,
            )
        for name in sorted(exempt):
            if name not in fields:
                yield self.finding(
                    ctx, exempt_node or cls,
                    f"CACHE_KEY_EXEMPT['SweepConfig'] names {name!r} but "
                    "SweepConfig has no such field; remove the stale "
                    "entry",
                    field=name,
                )
