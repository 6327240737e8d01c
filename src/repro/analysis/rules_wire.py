"""P-rules: pickle safety at the process-pool boundary.

Everything that crosses the process-pool boundary travels by pickle.  An
unpicklable payload — a lambda, a closure, an open file handle — raises
only once a sweep actually runs in parallel (P501).  The payload *types*
are a contract: frozen dataclasses whose fields are transitively
picklable, provable from the source (P502, declared by
``WIRE_SPEC_TYPES`` in the sweep module).
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Set, Tuple

from .context import FileContext, ProjectContext
from .dataflow import module_dataflow
from .findings import Finding
from .registry import Rule, register_rule

#: the module that owns RunSpec, cache_key and the in-source contracts
#: (``CACHE_KEY_EXEMPT`` for K601/K602, ``WIRE_SPEC_TYPES`` for P502)
SWEEP_MODULE = "repro.experiments.sweep"

#: constructors whose results must never be pickled (handles bound to
#: this process: files, sockets, event loops)
HANDLE_CTORS = frozenset(
    {
        "open",
        "socket.socket",
        "socket.create_connection",
        "asyncio.new_event_loop",
        "asyncio.get_event_loop",
        "asyncio.get_running_loop",
        "threading.Lock",
        "threading.RLock",
        "threading.Thread",
    }
)

#: call targets whose arguments cross a pickle boundary
_PICKLE_CALLS = ("pickle.dumps", "pickle.dump")

#: builtin scalar annotations that always pickle
_PICKLABLE_LEAVES = frozenset(
    {"int", "float", "str", "bool", "bytes", "complex", "None", "NoneType"}
)

#: generic containers: picklable iff their parameters are
_CONTAINER_HEADS = frozenset(
    {
        "Optional", "Union", "Tuple", "List", "Dict", "Set", "FrozenSet",
        "Sequence", "Mapping", "Iterable", "tuple", "list", "dict", "set",
        "frozenset",
    }
)


def _is_pickle_boundary(ctx: FileContext, call: ast.Call) -> bool:
    dotted = ctx.resolve_name(call.func)
    if dotted is not None and dotted.endswith(_PICKLE_CALLS):
        return True
    # ExecutionBackend.submit / Executor.submit style method calls inside
    # the experiments layer: their arguments reach a worker process
    if (
        isinstance(call.func, ast.Attribute)
        and call.func.attr == "submit"
        and ctx.module is not None
        and ctx.module.startswith("repro.experiments")
    ):
        return True
    return False


@register_rule
class UnpicklablePayloadRule(Rule):
    """P501: unpicklable value in a pickled or pool payload expression.

    At every call whose arguments cross a pickle boundary
    (``pickle.dumps``/``dump`` and ``.submit(...)`` in the experiments
    layer), the payload expressions
    are scanned for lambdas, references to *nested* functions or classes
    (closures — module-level callables pickle by reference and pass), and
    names bound to open handles (``open(...)``, sockets, event loops).
    """

    RULE_ID = "P501"
    RULE_DOC = (
        "lambda/closure/open-handle in a payload that crosses the "
        "pickle boundary; it would raise mid-sweep on a worker"
    )
    scope = "file"

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        flow = module_dataflow(ctx)
        for qualname, info in sorted(flow.functions.items()):
            for site in flow.calls_from.get(qualname, ()):
                if not _is_pickle_boundary(ctx, site.node):
                    continue
                for payload in list(site.node.args) + [
                    kw.value for kw in site.node.keywords
                ]:
                    yield from self._scan_payload(
                        ctx, flow, info, payload, qualname
                    )

    def _scan_payload(self, ctx, flow, info, payload: ast.expr,
                      qualname: str) -> Iterator[Finding]:
        for node in ast.walk(payload):
            if isinstance(node, ast.Lambda):
                yield self.finding(
                    ctx, node,
                    f"lambda in a pickled payload (in {qualname}); "
                    "lambdas cannot cross the wire — use a module-level "
                    "function or a declarative spec",
                    function=qualname,
                )
            elif isinstance(node, ast.Call):
                dotted = ctx.resolve_name(node.func)
                if dotted in HANDLE_CTORS or (
                    isinstance(node.func, ast.Name)
                    and node.func.id == "open"
                    and info.scope.lookup("open") is None
                ):
                    yield self.finding(
                        ctx, node,
                        f"process-bound handle ({dotted or 'open'}) "
                        f"constructed inside a pickled payload (in "
                        f"{qualname})",
                        function=qualname,
                    )
            elif isinstance(node, ast.Name) and isinstance(
                node.ctx, ast.Load
            ):
                yield from self._scan_name(ctx, info, node, qualname)

    def _scan_name(self, ctx, info, node: ast.Name,
                   qualname: str) -> Iterator[Finding]:
        binding = info.scope.lookup(node.id)
        if binding is None or binding.owner is None:
            return
        nested = binding.owner.is_function_like
        if binding.kind in ("func", "class") and nested:
            what = "function" if binding.kind == "func" else "class"
            yield self.finding(
                ctx, node,
                f"locally-defined {what} {node.id!r} in a pickled payload "
                f"(in {qualname}); nested definitions cannot be pickled "
                "by reference — move it to module level",
                name=node.id,
                function=qualname,
            )
            return
        value = binding.value
        if isinstance(value, ast.Lambda):
            yield self.finding(
                ctx, node,
                f"{node.id!r} is bound to a lambda and pickled in "
                f"{qualname}; lambdas cannot cross the wire",
                name=node.id,
                function=qualname,
            )
        elif isinstance(value, ast.Call):
            dotted = ctx.resolve_name(value.func)
            if dotted in HANDLE_CTORS or (
                isinstance(value.func, ast.Name)
                and value.func.id == "open"
                and info.scope.lookup("open") is None
            ):
                yield self.finding(
                    ctx, node,
                    f"{node.id!r} holds a process-bound handle "
                    f"({dotted or 'open'}) and is pickled in {qualname}",
                    name=node.id,
                    function=qualname,
                )


# ----------------------------------------------------------------------
# shared class-resolution helpers (P502 + K601 both chase annotations)


def find_constant(ctx: FileContext, name: str) -> Optional[ast.AST]:
    """The module-level assignment node of ``name``, if present."""
    for node in ast.iter_child_nodes(ctx.tree):
        targets: List[ast.AST] = []
        if isinstance(node, ast.Assign):
            targets = list(node.targets)
        elif isinstance(node, ast.AnnAssign):
            targets = [node.target]
        if any(isinstance(t, ast.Name) and t.id == name for t in targets):
            return node
    return None


def resolve_class(
    project: ProjectContext, dotted: str,
    _seen: Optional[Set[str]] = None,
) -> Optional[Tuple[FileContext, ast.ClassDef]]:
    """``repro.x.Y`` -> the defining module and ``ClassDef``.

    Chases re-exports: ``repro.core.ExploreConfig`` resolves through the
    package ``__init__``'s import map to
    ``repro.core.interval_explore.ExploreConfig``.
    """
    seen = _seen if _seen is not None else set()
    if dotted in seen:
        return None
    seen.add(dotted)
    module, _, name = dotted.rpartition(".")
    if not module:
        return None
    ctx = project.find_module(module)
    if ctx is None:
        return None
    for node in ast.iter_child_nodes(ctx.tree):
        if isinstance(node, ast.ClassDef) and node.name == name:
            return ctx, node
    re_export = ctx.import_map.get(name)
    if re_export is not None:
        return resolve_class(project, re_export, seen)
    return None


def resolve_annotation_classes(
    project: ProjectContext, ctx: FileContext, annotation: ast.expr,
) -> Tuple[List[str], List[str]]:
    """Split an annotation into (repro class dotted paths, problems).

    Walks ``Optional``/``Union``/container generics down to their leaves.
    A leaf is fine when it is a picklable builtin scalar or a resolvable
    class; ``object`` and unresolvable names come back as problems.
    """
    classes: List[str] = []
    problems: List[str] = []
    _walk_annotation(project, ctx, annotation, classes, problems)
    return classes, problems


def _walk_annotation(project, ctx: FileContext, node: ast.expr,
                     classes: List[str], problems: List[str]) -> None:
    if isinstance(node, ast.Constant):
        if node.value is None or node.value is Ellipsis:
            return
        if isinstance(node.value, str):  # quoted forward reference
            try:
                parsed = ast.parse(node.value, mode="eval").body
            except SyntaxError:
                problems.append(f"unparseable annotation {node.value!r}")
                return
            _walk_annotation(project, ctx, parsed, classes, problems)
        return
    if isinstance(node, ast.Subscript):
        head = _annotation_head(node.value)
        if head in _CONTAINER_HEADS:
            inner = node.slice
            elements = (
                inner.elts if isinstance(inner, ast.Tuple) else [inner]
            )
            for element in elements:
                _walk_annotation(project, ctx, element, classes, problems)
            return
        problems.append(f"unknown generic {head or ast.dump(node.value)}")
        return
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitOr):
        _walk_annotation(project, ctx, node.left, classes, problems)
        _walk_annotation(project, ctx, node.right, classes, problems)
        return
    head = _annotation_head(node)
    if head is None:
        problems.append(f"opaque annotation {type(node).__name__}")
        return
    if head == "object":
        problems.append(
            "untyped 'object' (cannot prove the value picklable/stable)"
        )
        return
    if head in _PICKLABLE_LEAVES or head in _CONTAINER_HEADS:
        return
    resolved = _resolve_local_or_imported(project, ctx, node, head)
    if resolved is None:
        problems.append(f"unresolvable type {head!r}")
    else:
        classes.append(resolved)


def _annotation_head(node: ast.expr) -> Optional[str]:
    """Base spelling of an annotation: ``typing.Optional`` -> ``Optional``,
    ``ProcessorConfig`` -> ``ProcessorConfig``."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _resolve_local_or_imported(project, ctx: FileContext, node: ast.expr,
                               head: str) -> Optional[str]:
    """Dotted path of the class an annotation names, if locatable."""
    if ctx.module is not None:
        for child in ast.iter_child_nodes(ctx.tree):
            if isinstance(child, ast.ClassDef) and child.name == head:
                return f"{ctx.module}.{head}"
    dotted = ctx.resolve_name(node) or ctx.import_map.get(head)
    if dotted is not None and resolve_class(project, dotted) is not None:
        return dotted
    return None


def is_frozen_dataclass(cls: ast.ClassDef) -> bool:
    for dec in cls.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        name = target.attr if isinstance(target, ast.Attribute) else (
            target.id if isinstance(target, ast.Name) else ""
        )
        if name != "dataclass":
            continue
        if isinstance(dec, ast.Call):
            for kw in dec.keywords:
                if kw.arg == "frozen" and isinstance(
                    kw.value, ast.Constant
                ):
                    return bool(kw.value.value)
        return False  # bare @dataclass: not frozen
    return False


def is_dataclass(cls: ast.ClassDef) -> bool:
    for dec in cls.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        name = target.attr if isinstance(target, ast.Attribute) else (
            target.id if isinstance(target, ast.Name) else ""
        )
        if name == "dataclass":
            return True
    return False


def class_fields(cls: ast.ClassDef) -> Dict[str, ast.AnnAssign]:
    """Public dataclass field declarations, in source order."""
    fields: Dict[str, ast.AnnAssign] = {}
    for stmt in cls.body:
        if isinstance(stmt, ast.AnnAssign) and isinstance(
            stmt.target, ast.Name
        ):
            if not stmt.target.id.startswith("_"):
                fields[stmt.target.id] = stmt
    return fields


def field_has_flag(decl: ast.AnnAssign, flag: str) -> bool:
    """Is the field declared with ``field(<flag>=False)`` (repr/compare)?"""
    value = decl.value
    if not isinstance(value, ast.Call):
        return False
    name = value.func
    fname = name.attr if isinstance(name, ast.Attribute) else (
        name.id if isinstance(name, ast.Name) else ""
    )
    if fname != "field":
        return False
    for kw in value.keywords:
        if kw.arg == flag and isinstance(kw.value, ast.Constant):
            return kw.value.value is False
    return False


@register_rule
class WireTypeRule(Rule):
    """P502: pickled payload types must be transitively picklable, frozen.

    The sweep module declares the payload roots that cross the pool
    boundary in ``WIRE_SPEC_TYPES`` (dotted class paths), next to
    ``CACHE_KEY_EXEMPT``.  Each root — and every class reachable through
    its field annotations — must be a ``@dataclass(frozen=True)`` whose
    fields are picklable builtin scalars, containers of such, or other
    checked dataclasses.  ``object`` annotations fail: they hide exactly
    the unpicklable values P501 hunts at call sites.
    """

    RULE_ID = "P502"
    RULE_DOC = (
        "pickled payload type is not provably a frozen dataclass with "
        "transitively picklable fields"
    )
    scope = "project"

    def check(self, project: ProjectContext) -> Iterator[Finding]:
        sweep_ctx = project.find_module(SWEEP_MODULE)
        if sweep_ctx is None:
            return
        decl = find_constant(sweep_ctx, "WIRE_SPEC_TYPES")
        if decl is None:
            yield self.finding(
                sweep_ctx, sweep_ctx.tree,
                f"{SWEEP_MODULE} declares no WIRE_SPEC_TYPES; the pool "
                "payload contract is unchecked",
            )
            return
        roots = _string_tuple(decl)
        if not roots:
            yield self.finding(
                sweep_ctx, decl,
                "WIRE_SPEC_TYPES is declared but names no types; the "
                "pool payload contract is unchecked",
            )
            return
        checked: Set[str] = set()
        queue = list(roots)
        while queue:
            dotted = queue.pop(0)
            if dotted in checked:
                continue
            checked.add(dotted)
            resolved = resolve_class(project, dotted)
            if resolved is None:
                yield self.finding(
                    sweep_ctx, decl,
                    f"WIRE_SPEC_TYPES names {dotted!r} but no such class "
                    "is in the analysed tree",
                    type=dotted,
                )
                continue
            cls_ctx, cls = resolved
            if not is_frozen_dataclass(cls):
                yield self.finding(
                    cls_ctx, cls,
                    f"{dotted} crosses the pool boundary but is not a "
                    "@dataclass(frozen=True); payload types must be "
                    "immutable value objects",
                    type=dotted,
                )
            for name, field_decl in class_fields(cls).items():
                classes, problems = resolve_annotation_classes(
                    project, cls_ctx, field_decl.annotation
                )
                queue.extend(classes)
                for problem in problems:
                    yield self.finding(
                        cls_ctx, field_decl,
                        f"{dotted}.{name}: {problem}; every payload field "
                        "must be provably picklable from its annotation",
                        type=dotted,
                        field=name,
                    )


def _string_tuple(decl: ast.AST) -> List[str]:
    value = getattr(decl, "value", None)
    if not isinstance(value, (ast.Tuple, ast.List)):
        return []
    return [
        e.value for e in value.elts
        if isinstance(e, ast.Constant) and isinstance(e.value, str)
    ]

