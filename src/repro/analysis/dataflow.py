"""Per-module def-use dataflow: functions, call edges, attribute chains.

Built on :mod:`repro.analysis.symbols`, this is the shared layer the
P5xx / K6xx rule packs consume.  For one :class:`~.context.FileContext`
it indexes:

* every function/method with its qualified name (``Class.method``,
  ``outer.<locals>.inner``), async-ness and decorator list;
* the intra-module call graph — ``self.m()`` resolves to ``Class.m``,
  bare names resolve through the symbol table to module functions, and
  anything imported resolves to its absolute dotted path;
* per-method ``self.<attr>`` read sets, with a transitive variant that
  follows ``self``-method calls (how K602 proves a ``SimSpec`` field
  flows into ``to_run_spec``).

The view is memoized on the file context (``ctx.dataflow_cache``) so the
rule packs share one build per file.
"""

from __future__ import annotations

import ast
from collections import deque
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set

from .context import FileContext
from .symbols import Scope, SymbolTable, iter_own_nodes

_FUNC_NODES = (ast.FunctionDef, ast.AsyncFunctionDef)


@dataclass
class FunctionInfo:
    """One function or method of the module."""

    qualname: str
    node: ast.AST
    is_async: bool
    scope: Scope
    class_name: Optional[str] = None
    #: decorator spellings, resolved to absolute dotted paths when the
    #: decorator was imported, else the source spelling (``staticmethod``)
    decorators: List[str] = field(default_factory=list)

    @property
    def name(self) -> str:
        return self.qualname.rsplit(".", 1)[-1]


@dataclass
class ClassInfo:
    """One class of the module and its directly-defined methods."""

    name: str
    node: ast.ClassDef
    methods: Dict[str, FunctionInfo] = field(default_factory=dict)


@dataclass
class CallSite:
    """One call expression, resolved as far as statically possible."""

    node: ast.Call
    caller: str  #: qualname of the enclosing function ("" at module level)
    #: qualname when the target is a function/method of this module
    local: Optional[str] = None
    #: absolute dotted path when the target resolves through an import
    dotted: Optional[str] = None


class ModuleDataflow:
    """The def-use view of one parsed module (see module docstring)."""

    def __init__(self, ctx: FileContext) -> None:
        self.ctx = ctx
        self.symbols = SymbolTable(ctx.tree)
        self.functions: Dict[str, FunctionInfo] = {}
        self.classes: Dict[str, ClassInfo] = {}
        self.calls: List[CallSite] = []
        self.calls_from: Dict[str, List[CallSite]] = {}
        self._qualname_of_node: Dict[ast.AST, str] = {}
        self._index_definitions(ctx.tree, class_name=None, prefix="")
        self._index_calls()

    # ------------------------------------------------------------------
    # definitions

    def _index_definitions(self, node: ast.AST, class_name: Optional[str],
                           prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, _FUNC_NODES):
                scope = self.symbols.scope_for(child)
                if scope is None:  # pragma: no cover - symbols missed it
                    continue
                qualname = scope.qualname()
                info = FunctionInfo(
                    qualname=qualname,
                    node=child,
                    is_async=isinstance(child, ast.AsyncFunctionDef),
                    scope=scope,
                    class_name=class_name,
                    decorators=[self._decorator_name(d)
                                for d in child.decorator_list],
                )
                self.functions[qualname] = info
                self._qualname_of_node[child] = qualname
                if class_name is not None and "." not in qualname.replace(
                    f"{class_name}.", "", 1
                ):
                    self.classes[class_name].methods[child.name] = info
                self._index_definitions(child, class_name=None,
                                        prefix=qualname)
            elif isinstance(child, ast.ClassDef):
                # nested classes are indexed under their plain name too;
                # module-level classes are what the rules care about
                self.classes.setdefault(
                    child.name, ClassInfo(name=child.name, node=child)
                )
                self._index_definitions(child, class_name=child.name,
                                        prefix=child.name)
            else:
                self._index_definitions(child, class_name=class_name,
                                        prefix=prefix)

    def _decorator_name(self, node: ast.expr) -> str:
        target = node.func if isinstance(node, ast.Call) else node
        dotted = self.ctx.resolve_name(target)
        if dotted is not None:
            return dotted
        parts: List[str] = []
        while isinstance(target, ast.Attribute):
            parts.insert(0, target.attr)
            target = target.value
        if isinstance(target, ast.Name):
            parts.insert(0, target.id)
        return ".".join(parts)

    # ------------------------------------------------------------------
    # call graph

    def _index_calls(self) -> None:
        for info in list(self.functions.values()):
            sites = [
                self._resolve_call(node, info)
                for node in iter_own_nodes(info.node)
                if isinstance(node, ast.Call)
            ]
            self.calls_from[info.qualname] = sites
            self.calls.extend(sites)

    def _resolve_call(self, call: ast.Call, info: FunctionInfo) -> CallSite:
        func = call.func
        local: Optional[str] = None
        dotted: Optional[str] = None
        if isinstance(func, ast.Name):
            binding = info.scope.lookup(func.id)
            if binding is not None and binding.kind in ("func", "class"):
                local = self._qualname_of_node.get(binding.node)
                if local is None and binding.kind == "class":
                    dotted = None  # local class construction; opaque here
            elif binding is None or binding.kind == "import":
                dotted = self.ctx.resolve_name(func)
        elif isinstance(func, ast.Attribute):
            if (
                isinstance(func.value, ast.Name)
                and func.value.id in ("self", "cls")
                and info.class_name is not None
            ):
                cls = self.classes.get(info.class_name)
                if cls is not None and func.attr in cls.methods:
                    local = cls.methods[func.attr].qualname
            else:
                dotted = self.ctx.resolve_name(func)
        return CallSite(node=call, caller=info.qualname, local=local,
                        dotted=dotted)

    # ------------------------------------------------------------------
    # self.<attr> dataflow

    def attr_reads(self, qualname: str) -> Set[str]:
        """``self.<attr>`` names loaded anywhere in the function."""
        info = self.functions.get(qualname)
        reads: Set[str] = set()
        if info is None:
            return reads
        for node in iter_own_nodes(info.node):
            if (
                isinstance(node, ast.Attribute)
                and isinstance(node.ctx, ast.Load)
                and isinstance(node.value, ast.Name)
                and node.value.id == "self"
            ):
                reads.add(node.attr)
        return reads

    def attr_reads_transitive(self, class_name: str, method: str) -> Set[str]:
        """Reads of :meth:`attr_reads`, following ``self.method()`` calls.

        This is the "attribute chain through ``self``" primitive: a field
        read by a helper the entry method calls still counts as flowing
        out of the entry method.
        """
        cls = self.classes.get(class_name)
        if cls is None or method not in cls.methods:
            return set()
        reads: Set[str] = set()
        seen: Set[str] = set()
        work = deque([cls.methods[method].qualname])
        while work:
            current = work.popleft()
            if current in seen:
                continue
            seen.add(current)
            reads |= self.attr_reads(current)
            for site in self.calls_from.get(current, ()):
                if site.local is not None and site.local.startswith(
                    f"{class_name}."
                ):
                    work.append(site.local)
        return reads


def module_dataflow(ctx: FileContext) -> ModuleDataflow:
    """The (memoized) dataflow view of ``ctx``.

    The rule packs all call this; the build happens once per file
    per analysis run and is cached on ``ctx.dataflow_cache``.
    """
    cached = ctx.dataflow_cache
    if isinstance(cached, ModuleDataflow):
        return cached
    flow = ModuleDataflow(ctx)
    ctx.dataflow_cache = flow
    return flow
