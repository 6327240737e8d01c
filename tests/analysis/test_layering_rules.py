"""L201: the import-direction architecture."""


class TestL201Layering:
    def test_upstack_import_flagged(self, findings_of):
        found = findings_of({
            "repro/clusters/steer2.py": """
                from ..experiments.runner import scaled_length
            """,
        }, select=["L201"])
        assert len(found) == 1
        f = found[0]
        assert f.rule == "L201"
        assert f.path == "repro/clusters/steer2.py"
        assert f.line == 2
        assert "repro.experiments" in f.message

    def test_absolute_spelling_flagged_too(self, findings_of):
        found = findings_of({
            "repro/memory/cache2.py": """
                from repro.pipeline.rob import ReorderBuffer
            """,
        }, select=["L201"])
        assert [f.rule for f in found] == ["L201"]

    def test_cross_sibling_import_flagged(self, findings_of):
        found = findings_of({
            "repro/frontend/fetch2.py": """
                from ..clusters.cluster import Cluster
            """,
        }, select=["L201"])
        assert len(found) == 1
        assert "cross-sibling" in found[0].message

    def test_lazy_function_local_import_still_counts(self, findings_of):
        found = findings_of({
            "repro/pipeline/lazy.py": """
                def build():
                    from ..experiments.sweep import SweepRunner
                    return SweepRunner
            """,
        }, select=["L201"])
        assert [f.rule for f in found] == ["L201"]

    def test_downstack_imports_ok(self, findings_of):
        found = findings_of({
            "repro/pipeline/proc2.py": """
                from ..clusters.cluster import Cluster
                from ..memory.lsq import CentralizedLSQ
                from ..config import ProcessorConfig
                from ..stats import SimStats
            """,
            "repro/experiments/run2.py": """
                from ..pipeline.processor import ClusteredProcessor
                from ..core.controller import IntervalController
                from .. import faults
            """,
        }, select=["L201"])
        assert found == []

    def test_package_root_is_exempt(self, findings_of):
        found = findings_of({
            "repro/__init__.py": """
                from .api import simulate
                from .experiments.sweep import SweepRunner
            """,
        }, select=["L201"])
        assert found == []

    def test_stdlib_and_third_party_ignored(self, findings_of):
        found = findings_of({
            "repro/clusters/misc.py": """
                import os
                import numpy
                from collections import deque
            """,
        }, select=["L201"])
        assert found == []

    def test_real_tree_is_clean(self):
        from repro.analysis import analyze_paths
        from .conftest import REPO_ROOT

        result = analyze_paths(
            [REPO_ROOT / "src"], root=REPO_ROOT, select=["L201"]
        )
        assert result.findings == []

