"""Per-line ``# repro: allow[...]`` suppressions."""

from repro.analysis.context import parse_suppressions

VIOLATING = """
import random

def pick():
    return random.random(){comment}
"""


class TestSuppressionComments:
    def test_matching_rule_id_suppresses(self, run_analysis):
        result = run_analysis({
            "repro/pipeline/p.py": VIOLATING.format(
                comment="  # repro: allow[D101]"
            ),
        }, select=["D101"])
        assert result.findings == []
        assert [f.rule for f in result.suppressed] == ["D101"]

    def test_non_matching_rule_id_does_not_suppress(self, run_analysis):
        result = run_analysis({
            "repro/pipeline/p.py": VIOLATING.format(
                comment="  # repro: allow[D105]"
            ),
        }, select=["D101"])
        assert [f.rule for f in result.findings] == ["D101"]
        assert result.suppressed == []

    def test_bare_allow_suppresses_everything(self, run_analysis):
        result = run_analysis({
            "repro/pipeline/p.py": VIOLATING.format(comment="  # repro: allow"),
        }, select=["D101"])
        assert result.findings == []

    def test_comment_on_other_line_does_not_leak(self, run_analysis):
        result = run_analysis({
            "repro/pipeline/p.py": (
                "# repro: allow[D101]\n" + VIOLATING.format(comment="")
            ),
        }, select=["D101"])
        assert [f.rule for f in result.findings] == ["D101"]

    def test_multiple_ids_and_reason_trailer(self):
        table = parse_suppressions(
            "x = 1  # repro: allow[D101, S302] -- hot path, order-free\n"
            "y = 2  # repro: allow\n"
            "z = 3  # unrelated comment\n"
        )
        assert table == {1: {"D101", "S302"}, 2: {"*"}}

