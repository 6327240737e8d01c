"""P5xx: pickle-safety of payloads and of the declared payload types."""


def rules_of(findings, rule):
    return [f for f in findings if f.rule == rule]


class TestP501UnpicklablePayload:
    def test_lambda_in_pickle_dumps(self, findings_of):
        findings = findings_of(
            {
                "repro/pipeline/p.py": """
                import pickle

                def ship():
                    return pickle.dumps({"cb": lambda: 1})
                """
            },
            select=("P501",),
        )
        (finding,) = rules_of(findings, "P501")
        assert "lambda" in finding.message

    def test_nested_function_reference_flagged(self, findings_of):
        findings = findings_of(
            {
                "repro/pipeline/p.py": """
                import pickle

                def ship():
                    def helper():
                        return 1
                    return pickle.dumps(helper)
                """
            },
            select=("P501",),
        )
        (finding,) = rules_of(findings, "P501")
        assert "helper" in finding.message

    def test_module_level_function_pickles_by_reference(self, findings_of):
        findings = findings_of(
            {
                "repro/pipeline/p.py": """
                import pickle

                def helper():
                    return 1

                def ship():
                    return pickle.dumps(helper)
                """
            },
            select=("P501",),
        )
        assert rules_of(findings, "P501") == []

    def test_open_handle_bound_local_flagged(self, findings_of):
        findings = findings_of(
            {
                "repro/pipeline/p.py": """
                import pickle

                def ship(path):
                    fh = open(path)
                    return pickle.dumps(fh)
                """
            },
            select=("P501",),
        )
        (finding,) = rules_of(findings, "P501")
        assert "handle" in finding.message

    def test_submit_in_experiments_layer_is_a_boundary(self, findings_of):
        findings = findings_of(
            {
                "repro/experiments/pool.py": """
                def run(executor):
                    return executor.submit(lambda: 1)
                """
            },
            select=("P501",),
        )
        assert len(rules_of(findings, "P501")) == 1

    def test_submit_outside_experiments_is_not(self, findings_of):
        findings = findings_of(
            {
                "repro/pipeline/p.py": """
                def run(executor):
                    return executor.submit(lambda: 1)
                """
            },
            select=("P501",),
        )
        assert rules_of(findings, "P501") == []


SWEEP = """
from typing import Tuple

WIRE_SPEC_TYPES: Tuple[str, ...] = ("repro.pipeline.spec.Spec",)
"""


class TestP502WireTypes:
    def tree(self, spec_source):
        return {
            "repro/experiments/sweep.py": SWEEP,
            "repro/pipeline/spec.py": spec_source,
        }

    def test_frozen_scalar_dataclass_passes(self, findings_of):
        findings = findings_of(
            self.tree(
                """
                from dataclasses import dataclass
                from typing import Optional, Tuple

                @dataclass(frozen=True)
                class Spec:
                    name: str
                    seeds: Tuple[int, ...]
                    note: Optional[str] = None
                """
            ),
            select=("P502",),
        )
        assert rules_of(findings, "P502") == []

    def test_unfrozen_wire_type_flagged(self, findings_of):
        findings = findings_of(
            self.tree(
                """
                from dataclasses import dataclass

                @dataclass
                class Spec:
                    name: str
                """
            ),
            select=("P502",),
        )
        (finding,) = rules_of(findings, "P502")
        assert "frozen" in finding.message

    def test_object_typed_field_flagged(self, findings_of):
        findings = findings_of(
            self.tree(
                """
                from dataclasses import dataclass
                from typing import Optional

                @dataclass(frozen=True)
                class Spec:
                    name: str
                    extra: Optional[object] = None
                """
            ),
            select=("P502",),
        )
        (finding,) = rules_of(findings, "P502")
        assert "extra" in finding.message

    def test_nested_spec_class_checked_transitively(self, findings_of):
        tree = self.tree(
            """
            from dataclasses import dataclass
            from typing import Optional

            from .inner import Inner

            @dataclass(frozen=True)
            class Spec:
                name: str
                inner: Optional[Inner] = None
            """
        )
        tree["repro/pipeline/inner.py"] = """
        class Inner:
            pass
        """
        findings = findings_of(tree, select=("P502",))
        (finding,) = rules_of(findings, "P502")
        assert "Inner" in finding.message

    def test_missing_declaration_is_a_finding(self, findings_of):
        """Deleting the contract must not silently switch P502 off."""
        tree = self.tree("")
        tree["repro/experiments/sweep.py"] = "RETRIES = 1\n"
        findings = findings_of(tree, select=("P502",))
        (finding,) = rules_of(findings, "P502")
        assert "WIRE_SPEC_TYPES" in finding.message
