"""The def-use layer: symbol tables, call graph, attribute chains."""

import textwrap

import pytest

from repro.analysis.context import build_file_context
from repro.analysis.dataflow import ModuleDataflow, module_dataflow
from repro.analysis.symbols import SymbolTable, iter_own_nodes

from .conftest import REPO_ROOT


@pytest.fixture
def flow_of(tmp_path):
    """Parse source as ``repro/pipeline/m.py`` and build its dataflow."""

    def _build(source):
        pkg = tmp_path / "repro" / "pipeline"
        pkg.mkdir(parents=True, exist_ok=True)
        for d in (tmp_path / "repro", pkg):
            init = d / "__init__.py"
            if not init.exists():
                init.write_text("")
        path = pkg / "m.py"
        path.write_text(textwrap.dedent(source))
        ctx = build_file_context(path, "repro/pipeline/m.py")
        return ModuleDataflow(ctx)

    return _build


class TestSymbolTable:
    def test_local_assignment_shadows_import(self, flow_of):
        flow = flow_of(
            """
            import queue

            def f():
                queue = {}
                return queue.get("x")
            """
        )
        scope = flow.functions["f"].scope
        binding = scope.lookup("queue")
        assert binding.kind == "assign"
        assert binding.owner is scope

    def test_unshadowed_name_resolves_to_module_import(self, flow_of):
        flow = flow_of(
            """
            import queue

            def f():
                return queue.Queue()
            """
        )
        binding = flow.functions["f"].scope.lookup("queue")
        assert binding.kind == "import"
        assert binding.owner.kind == "module"

    def test_class_scope_is_invisible_to_methods(self, flow_of):
        flow = flow_of(
            """
            limit = 1

            class C:
                limit = 2

                def m(self):
                    return limit
            """
        )
        binding = flow.functions["C.m"].scope.lookup("limit")
        # CPython semantics: the method sees the *module* limit, not C.limit
        assert binding.owner.kind == "module"
        assert binding.lineno == 2

    def test_global_redirects_lookup(self, flow_of):
        flow = flow_of(
            """
            count = 0

            def bump():
                global count
                count = 1
                return count
            """
        )
        binding = flow.functions["bump"].scope.lookup("count")
        assert binding.owner.kind == "module"

    def test_nested_function_qualname_uses_locals(self, flow_of):
        flow = flow_of(
            """
            def outer():
                def inner():
                    pass
                return inner
            """
        )
        assert "outer.<locals>.inner" in flow.functions

    def test_comprehension_target_does_not_leak(self, flow_of):
        flow = flow_of(
            """
            def f(items):
                out = [x for x in items]
                return out
            """
        )
        scope = flow.functions["f"].scope
        assert scope.lookup("x") is None  # bound only inside the comp scope
        assert scope.lookup("out").kind == "assign"

    def test_iter_own_nodes_stops_at_nested_defs(self, flow_of):
        flow = flow_of(
            """
            def outer():
                a = 1
                def inner():
                    b = 2
                return a
            """
        )
        names = {
            n.id
            for n in iter_own_nodes(flow.functions["outer"].node)
            if hasattr(n, "id")
        }
        assert "a" in names
        assert "b" not in names  # inner body is not outer's own code

    def test_symbol_table_standalone(self):
        import ast

        tree = ast.parse("def f(x):\n    y = x\n    return y\n")
        table = SymbolTable(tree)
        fn = tree.body[0]
        scope = table.scope_for(fn)
        assert scope.lookup("x").kind == "param"
        assert scope.lookup("y").kind == "assign"


class TestCallGraph:
    def test_self_calls_resolve_to_methods(self, flow_of):
        flow = flow_of(
            """
            class C:
                def entry(self):
                    return self._helper()

                def _helper(self):
                    return 1
            """
        )
        (site,) = flow.calls_from["C.entry"]
        assert site.local == "C._helper"
        assert site.dotted is None

    def test_imported_call_resolves_to_dotted_path(self, flow_of):
        flow = flow_of(
            """
            import time

            def f():
                time.sleep(1)
            """
        )
        (site,) = flow.calls_from["f"]
        assert site.dotted == "time.sleep"
        assert site.local is None

    def test_decorator_names_resolved(self, flow_of):
        flow = flow_of(
            """
            import functools

            @functools.lru_cache(maxsize=None)
            def f():
                pass
            """
        )
        assert flow.functions["f"].decorators == ["functools.lru_cache"]


class TestAttributeChains:
    SOURCE = """
    import queue

    class C:
        def __init__(self):
            self._q = queue.Queue()
            self.total = 0

        def entry(self):
            return self._indirect()

        def _indirect(self):
            return self.total + self._q.qsize()
    """

    def test_attr_reads_direct_vs_transitive(self, flow_of):
        flow = flow_of(self.SOURCE)
        # a self-method call is itself an attribute load; the *fields* the
        # helper touches only appear in the transitive view
        assert flow.attr_reads("C.entry") == {"_indirect"}
        reads = flow.attr_reads_transitive("C", "entry")
        assert {"total", "_q"} <= reads


class TestAsyncAndMemoization:
    def test_async_methods_flagged(self, flow_of):
        flow = flow_of(
            """
            class C:
                async def serve(self):
                    pass

                def close(self):
                    pass
            """
        )
        assert flow.functions["C.serve"].is_async
        assert not flow.functions["C.close"].is_async

    def test_module_dataflow_memoized_per_context(self, tmp_path):
        pkg = tmp_path / "repro"
        pkg.mkdir()
        (pkg / "__init__.py").write_text("")
        path = pkg / "m.py"
        path.write_text("def f():\n    pass\n")
        ctx = build_file_context(path, "repro/m.py")
        assert module_dataflow(ctx) is module_dataflow(ctx)


class TestRealTreeRegression:
    def test_full_real_tree_builds_and_is_clean(self):
        """Every shipped module must survive the dataflow build, and the
        analyzer must exit clean on HEAD — the pin that keeps the rule
        packs honest about their own false-positive rate."""
        from repro.analysis import analyze_paths

        paths = [
            REPO_ROOT / p
            for p in ("src", "benchmarks", "examples")
            if (REPO_ROOT / p).exists()
        ]
        result = analyze_paths(paths, root=REPO_ROOT)
        rendered = "\n".join(f.render() for f in result.findings)
        assert result.ok, rendered
        assert result.parse_errors == 0
