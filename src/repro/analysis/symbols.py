"""Per-module lexical symbol tables: scopes and name bindings.

The def-use dataflow layer (:mod:`repro.analysis.dataflow`) and the rule
packs built on it need to answer "what does this name refer to *here*"
more precisely than ``FileContext.import_map`` can (the import map is
flat: it knows what was imported, not whether a local assignment shadows
it).  This module builds a lexical scope tree for one parsed module:
every module / class / function / lambda / comprehension scope, the
names each binds (imports, assignments, ``def``/``class`` statements,
parameters, loop and ``with`` targets, exception names), and
Python-correct lookup through enclosing scopes — class scopes are
skipped when resolving names from an enclosed function, matching CPython
semantics, and ``global`` / ``nonlocal`` declarations redirect lookup.

Everything here is a static approximation: bindings record *where* a
name is (re)bound and what expression (if any) was assigned, without
evaluating anything.  Rules that need value knowledge inspect the
recorded ``value`` AST node themselves.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional

#: binding kinds, in rough order of how much a rule can learn from them
BINDING_KINDS = (
    "import",   # import / from-import statement
    "func",     # def / async def statement
    "class",    # class statement
    "param",    # function parameter (incl. *args / **kwargs / lambda)
    "assign",   # =, :=, annotated or augmented assignment
    "loop",     # for-loop / comprehension target
    "with",     # with ... as target
    "except",   # except ... as name
    "match",    # match-case capture pattern
)

_SCOPE_NODES = (
    ast.FunctionDef,
    ast.AsyncFunctionDef,
    ast.ClassDef,
    ast.Lambda,
    ast.ListComp,
    ast.SetComp,
    ast.DictComp,
    ast.GeneratorExp,
)


@dataclass
class Binding:
    """One (re)binding of a name within a scope."""

    name: str
    kind: str
    node: ast.AST
    lineno: int
    #: RHS expression for simple assignments (``x = <value>``); ``None``
    #: for destructuring targets, parameters, loops, imports, ...
    value: Optional[ast.expr] = None
    #: the scope this binding lives in (set by :meth:`Scope.bind`); lets
    #: rules distinguish a module-level ``def`` from a nested closure
    owner: Optional["Scope"] = None


@dataclass
class Scope:
    """One lexical scope and the names it binds."""

    kind: str  #: "module" | "class" | "function" | "lambda" | "comprehension"
    name: str
    node: ast.AST
    parent: Optional["Scope"] = None
    children: List["Scope"] = field(default_factory=list)
    #: name -> every binding of it in this scope, in source order
    bindings: Dict[str, List[Binding]] = field(default_factory=dict)
    #: names declared ``global`` in this scope
    global_names: List[str] = field(default_factory=list)
    #: names declared ``nonlocal`` in this scope
    nonlocal_names: List[str] = field(default_factory=list)

    @property
    def is_function_like(self) -> bool:
        return self.kind in ("function", "lambda", "comprehension")

    def qualname(self) -> str:
        """Dotted spelling of this scope, e.g. ``Class.method``.

        Nested function scopes are spelled ``outer.<locals>.inner`` (the
        CPython ``__qualname__`` convention) so they can never collide
        with a real method name.
        """
        parts: List[str] = []
        scope: Optional[Scope] = self
        while scope is not None and scope.kind != "module":
            parts.insert(0, scope.name)
            if scope.is_function_like and scope.parent is not None and (
                scope.parent.is_function_like
            ):
                parts.insert(0, "<locals>")
            scope = scope.parent
        return ".".join(parts)

    def bind(self, binding: Binding) -> None:
        binding.owner = self
        self.bindings.setdefault(binding.name, []).append(binding)

    def module_scope(self) -> "Scope":
        scope: Scope = self
        while scope.parent is not None:
            scope = scope.parent
        return scope

    def lookup(self, name: str) -> Optional[Binding]:
        """The binding ``name`` resolves to from this scope, if any.

        Follows lexical scoping: own bindings first, then enclosing
        *function/module* scopes (class scopes are invisible to enclosed
        functions), honouring ``global``/``nonlocal`` redirects.  Returns
        the *last* binding in the owning scope (a static approximation of
        "the most recent assignment"); ``None`` means builtin or unknown.
        """
        if name in self.global_names:
            mod = self.module_scope()
            bound = mod.bindings.get(name)
            return bound[-1] if bound else None
        if name in self.nonlocal_names:
            scope = self.parent
            while scope is not None:
                if scope.is_function_like and name in scope.bindings:
                    return scope.bindings[name][-1]
                scope = scope.parent
            return None
        if name in self.bindings:
            return self.bindings[name][-1]
        scope = self.parent
        while scope is not None:
            # class scopes do not enclose: a method cannot see class-level
            # names without qualifying them (CPython semantics)
            if scope.kind != "class" and name in scope.bindings:
                return scope.bindings[name][-1]
            scope = scope.parent
        return None

    def lookup_all(self, name: str) -> List[Binding]:
        """Every binding of ``name`` in the scope :meth:`lookup` would hit."""
        if name in self.bindings:
            return list(self.bindings[name])
        scope = self.parent
        while scope is not None:
            if scope.kind != "class" and name in scope.bindings:
                return list(scope.bindings[name])
            scope = scope.parent
        return []

    def walk(self) -> Iterator["Scope"]:
        yield self
        for child in self.children:
            yield from child.walk()


class SymbolTable:
    """The scope tree of one module, with a node -> scope index."""

    def __init__(self, tree: ast.AST) -> None:
        self.module_scope = Scope(kind="module", name="<module>", node=tree)
        #: scope-introducing AST node -> the Scope it introduces
        self.scopes: Dict[ast.AST, Scope] = {tree: self.module_scope}
        self._build(tree, self.module_scope)

    def scope_for(self, node: ast.AST) -> Optional[Scope]:
        """The scope introduced *by* ``node`` (a def/class/lambda/comp)."""
        return self.scopes.get(node)

    # ------------------------------------------------------------------
    # construction

    def _enter(self, kind: str, name: str, node: ast.AST,
               parent: Scope) -> Scope:
        scope = Scope(kind=kind, name=name, node=node, parent=parent)
        parent.children.append(scope)
        self.scopes[node] = scope
        return scope

    def _build(self, node: ast.AST, scope: Scope) -> None:
        for child in ast.iter_child_nodes(node):
            self._visit(child, scope)

    def _visit(self, node: ast.AST, scope: Scope) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            scope.bind(Binding(node.name, "func", node, node.lineno))
            # decorators, defaults and annotations evaluate in the
            # *defining* scope, not the function's own
            for dec in node.decorator_list:
                self._visit(dec, scope)
            for default in list(node.args.defaults) + [
                d for d in node.args.kw_defaults if d is not None
            ]:
                self._visit(default, scope)
            inner = self._enter("function", node.name, node, scope)
            self._bind_arguments(node.args, inner)
            for stmt in node.body:
                self._visit(stmt, inner)
        elif isinstance(node, ast.Lambda):
            inner = self._enter("lambda", "<lambda>", node, scope)
            self._bind_arguments(node.args, inner)
            self._visit(node.body, inner)
        elif isinstance(node, ast.ClassDef):
            scope.bind(Binding(node.name, "class", node, node.lineno))
            for dec in node.decorator_list:
                self._visit(dec, scope)
            for base in list(node.bases) + list(node.keywords):
                self._visit(base, scope)
            inner = self._enter("class", node.name, node, scope)
            for stmt in node.body:
                self._visit(stmt, inner)
        elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp,
                               ast.GeneratorExp)):
            inner = self._enter("comprehension", "<comp>", node, scope)
            for comp in node.generators:
                self._bind_target(comp.target, "loop", inner)
                self._visit(comp.iter, inner)
                for cond in comp.ifs:
                    self._visit(cond, inner)
            if isinstance(node, ast.DictComp):
                self._visit(node.key, inner)
                self._visit(node.value, inner)
            else:
                self._visit(node.elt, inner)
        elif isinstance(node, ast.Assign):
            self._visit(node.value, scope)
            value = node.value if (
                len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)
            ) else None
            for target in node.targets:
                self._bind_target(target, "assign", scope, value=value)
        elif isinstance(node, ast.AnnAssign):
            if node.value is not None:
                self._visit(node.value, scope)
            self._bind_target(node.target, "assign", scope, value=node.value)
        elif isinstance(node, ast.AugAssign):
            self._visit(node.value, scope)
            self._bind_target(node.target, "assign", scope)
        elif isinstance(node, ast.NamedExpr):
            self._visit(node.value, scope)
            self._bind_target(node.target, "assign", scope, value=node.value)
        elif isinstance(node, (ast.For, ast.AsyncFor)):
            self._visit(node.iter, scope)
            self._bind_target(node.target, "loop", scope)
            for stmt in node.body + node.orelse:
                self._visit(stmt, scope)
        elif isinstance(node, (ast.With, ast.AsyncWith)):
            for item in node.items:
                self._visit(item.context_expr, scope)
                if item.optional_vars is not None:
                    self._bind_target(item.optional_vars, "with", scope,
                                      value=item.context_expr)
            for stmt in node.body:
                self._visit(stmt, scope)
        elif isinstance(node, ast.ExceptHandler):
            if node.name:
                scope.bind(Binding(node.name, "except", node, node.lineno))
            self._build(node, scope)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                local = alias.asname or alias.name.split(".")[0]
                scope.bind(Binding(local, "import", node, node.lineno))
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                if alias.name == "*":
                    continue
                local = alias.asname or alias.name
                scope.bind(Binding(local, "import", node, node.lineno))
        elif isinstance(node, ast.Global):
            scope.global_names.extend(node.names)
        elif isinstance(node, ast.Nonlocal):
            scope.nonlocal_names.extend(node.names)
        elif isinstance(node, ast.MatchAs) and node.name:
            scope.bind(Binding(node.name, "match", node, node.lineno))
            self._build(node, scope)
        elif isinstance(node, ast.MatchStar) and node.name:
            scope.bind(Binding(node.name, "match", node, node.lineno))
        else:
            self._build(node, scope)

    def _bind_arguments(self, args: ast.arguments, scope: Scope) -> None:
        every = (
            list(args.posonlyargs) + list(args.args) + list(args.kwonlyargs)
        )
        for extra in (args.vararg, args.kwarg):
            if extra is not None:
                every.append(extra)
        for arg in every:
            scope.bind(Binding(arg.arg, "param", arg, arg.lineno))

    def _bind_target(self, target: ast.AST, kind: str, scope: Scope, *,
                     value: Optional[ast.expr] = None) -> None:
        if isinstance(target, ast.Name):
            scope.bind(Binding(target.id, kind, target, target.lineno,
                               value=value))
        elif isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._bind_target(element, kind, scope)
        elif isinstance(target, ast.Starred):
            self._bind_target(target.value, kind, scope)
        # attribute / subscript targets bind no *name*; the dataflow layer
        # tracks ``self.x`` reads separately


def iter_own_nodes(func: ast.AST) -> Iterator[ast.AST]:
    """Every node in ``func``'s body that runs *when the function runs*.

    Descends statements and expressions but stops at nested scope
    introducers (``def`` / ``class`` / ``lambda``): their bodies only run
    when *they* are invoked, so a call site is attributed to the function
    that actually executes it.  The nested node itself is still yielded so
    callers can see that it exists.
    """
    body = getattr(func, "body", [])
    stack: List[ast.AST] = list(body) if isinstance(body, list) else [body]
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, _SCOPE_NODES):
            continue  # do not descend into nested scopes
        stack.extend(ast.iter_child_nodes(node))
