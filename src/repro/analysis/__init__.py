"""Static-analysis pass for the invariants only the source can show.

Runtime tests catch a broken contract on the paths they execute: the
golden fingerprints, the naive-vs-fused equivalence oracle, and the
cache-key, merge and pickle contract tests.  This package catches what a
test run cannot see, from the source alone:

* **D-rules (determinism)** — unseeded ``random`` calls, wall-clock reads
  inside the simulator model, iteration over sets in hot paths, ``id()``
  used for ordering, ad-hoc ``os.environ`` reads — on any path, including
  the ones no test executes.
* **L201 (layering)** — the one-directional import architecture
  (``workloads/frontend/clusters/interconnect/memory -> pipeline -> core
  -> experiments -> api -> cli``).
* **S-rules (vocabulary and schema)** — ``simulate``/``sweep``/``SimSpec``
  keyword usage plus topology/policy/workload string literals checked
  against the facade vocabulary, and every trace-event kind covered by
  the ``validate_event`` tests.

Run it with ``python -m repro.analysis [paths...]``; see
``docs/ANALYSIS.md`` for the rule catalogue and the suppression syntax
(``# repro: allow[RULE]``).

This package is deliberately self-contained (standard library only, no
imports from the simulator) so it can lint a broken tree.
"""

from .findings import Finding
from .registry import Rule, all_rules, register_rule
from .runner import AnalysisResult, analyze_paths

__all__ = [
    "AnalysisResult",
    "Finding",
    "Rule",
    "all_rules",
    "analyze_paths",
    "register_rule",
]
