"""S-rules: facade-vocabulary validation and trace-schema coverage."""

from .conftest import REPO_ROOT


class TestS302UnknownKeywords:
    def test_typoed_simulate_keyword_flagged(self, findings_of):
        found = findings_of({
            "repro/experiments/exp.py": """
                from ..api import simulate

                simulate("gzip", trace_legnth=10_000)
            """,
        }, select=["S302"])
        assert len(found) == 1
        assert found[0].detail["keyword"] == "trace_legnth"

    def test_typoed_simspec_keyword_flagged(self, findings_of):
        found = findings_of({
            "bench_dir/bench.py": """
                from repro.api import SimSpec

                SPEC = SimSpec(workload="gzip", topolgy="grid")
            """,
        }, select=["S302"])
        assert [f.detail["keyword"] for f in found] == ["topolgy"]

    def test_typoed_sweep_keyword_flagged(self, findings_of):
        found = findings_of({
            "bench_dir/bench.py": """
                from repro import sweep

                sweep([], job=4)
            """,
        }, select=["S302"])
        assert [f.detail["keyword"] for f in found] == ["job"]

    def test_valid_vocabulary_ok(self, findings_of):
        found = findings_of({
            "bench_dir/bench.py": """
                from repro.api import SimSpec, simulate, sweep

                simulate("gzip", trace_length=10_000, reconfig_policy="explore",
                         topology="grid", warmup=100, label="x")
                sweep([SimSpec(workload="swim", seed=3)], jobs=2, cache=False,
                      retries=2, timeout=60.0)
            """,
        }, select=["S302"])
        assert found == []

    def test_double_star_kwargs_not_judged(self, findings_of):
        found = findings_of({
            "bench_dir/bench.py": """
                from repro.api import simulate

                def go(**kw):
                    simulate("gzip", **kw)
            """,
        }, select=["S302"])
        assert found == []


class TestS303VocabularyLiterals:
    def test_bad_topology_flagged(self, findings_of):
        found = findings_of({
            "examples_dir/demo.py": """
                from repro.api import simulate

                simulate("gzip", topology="hexgrid")
            """,
        }, select=["S303"])
        assert len(found) == 1
        assert "hexgrid" in found[0].message

    def test_bad_policy_flagged_static_n_ok(self, findings_of):
        found = findings_of({
            "examples_dir/demo.py": """
                from repro.api import SimSpec

                SimSpec(workload="gzip", reconfig_policy="static-4")
                SimSpec(workload="gzip", reconfig_policy="adaptive")
            """,
        }, select=["S303"])
        assert len(found) == 1
        assert "adaptive" in found[0].message

    def test_bad_workload_name_flagged(self, findings_of):
        found = findings_of({
            "examples_dir/demo.py": """
                from repro.api import simulate

                simulate("gzpi", trace_length=1000)
            """,
        }, select=["S303"])
        assert len(found) == 1
        assert "gzpi" in found[0].message

    def test_all_real_profile_names_ok(self, findings_of):
        from repro.workloads.profiles import BENCHMARK_NAMES

        calls = "\n".join(
            f'simulate("{name}", topology="ring", reconfig_policy="none")'
            for name in BENCHMARK_NAMES
        )
        found = findings_of({
            "examples_dir/demo.py": (
                "from repro.api import simulate\n" + calls
            ),
        }, select=["S303"])
        assert found == []

    def test_non_literal_values_not_judged(self, findings_of):
        found = findings_of({
            "examples_dir/demo.py": """
                from repro.api import simulate

                def go(top, name):
                    simulate(name, topology=top)
            """,
        }, select=["S303"])
        assert found == []

    def test_vocabulary_extracted_from_scanned_api(self, findings_of):
        """When the scanned tree carries its own repro/api.py, its (smaller)
        vocabulary wins over the installed one."""
        found = findings_of({
            "repro/api.py": """
                _TOPOLOGIES = {"ring": None}
                _POLICIES = ("none",)

                class SimSpec:
                    workload: str
                    topology: str = "ring"
            """,
            "examples_dir/demo.py": """
                from repro.api import SimSpec

                SimSpec(workload="gzip", topology="grid")
            """,
        }, select=["S303"])
        assert len(found) == 1
        assert "grid" in found[0].message


EVENTS_MODULE = """
    EVENT_FIELDS = {
        "cycle_sample": ("ipc", "clusters"),
        "fault_inject": ("fault", "target"),
    }

    def validate_event(event):
        return event
"""


class TestS304EventSchemaCoverage:
    """S304 walks up from the scanned events.py to the sibling tests/ tree,
    so the synthetic fixtures place both under the same tmp_path root."""

    def test_uncovered_kind_flagged_by_name(self, findings_of):
        found = findings_of({
            "repro/observability/events.py": EVENTS_MODULE,
            "tests/test_schema.py": """
                from repro.observability.events import validate_event

                def test_cycle_sample():
                    validate_event({"kind": "cycle_sample"})
            """,
        }, select=["S304"])
        assert [f.rule for f in found] == ["S304"]
        assert found[0].detail["kind"] == "fault_inject"
        assert "fault_inject" in found[0].message
        # anchored at the kind's key inside the EVENT_FIELDS literal
        assert found[0].path == "repro/observability/events.py"

    def test_literal_coverage_of_every_kind_is_clean(self, findings_of):
        found = findings_of({
            "repro/observability/events.py": EVENTS_MODULE,
            "tests/test_schema.py": """
                from repro.observability.events import validate_event

                def test_kinds():
                    for kind in ("cycle_sample", "fault_inject"):
                        validate_event({"kind": kind})
            """,
        }, select=["S304"])
        assert found == []

    def test_exhaustive_parametrized_test_is_generic_coverage(
            self, findings_of):
        # a test that iterates EVENT_FIELDS covers new kinds by
        # construction — no literal mention needed
        found = findings_of({
            "repro/observability/events.py": EVENTS_MODULE,
            "tests/test_schema.py": """
                from repro.observability.events import (
                    EVENT_FIELDS, validate_event,
                )

                def test_every_kind():
                    for kind in EVENT_FIELDS:
                        validate_event({"kind": kind})
            """,
        }, select=["S304"])
        assert found == []

    def test_no_validate_event_tests_at_all(self, findings_of):
        found = findings_of({
            "repro/observability/events.py": EVENTS_MODULE,
            "tests/test_unrelated.py": """
                def test_nothing():
                    assert True
            """,
        }, select=["S304"])
        assert len(found) == 1
        assert "untested" in found[0].message
        assert "2 declared event kinds" in found[0].message

    def test_real_events_module_parses_into_the_rule(self, findings_of):
        """The shipping events.py, copied into a tree with no tests/ at
        all, trips the missing-tests arm — proving the rule extracts the
        real EVENT_FIELDS table.  (Real-repo coverage itself is proven by
        the shipping-tree-clean test in test_cli.py, which resolves the
        actual tests/ directory.)"""
        real = (REPO_ROOT / "src/repro/observability/events.py").read_text()
        found = findings_of(
            {"repro/observability/events.py": real}, select=["S304"])
        assert len(found) == 1
        assert "untested" in found[0].message
        assert "declared event kinds" in found[0].message
