"""C-rules: thread discipline.

The simulator is single-threaded by design: determinism rests on one
cycle loop per process, and sweep parallelism comes from worker
*processes* behind an :class:`~repro.experiments.backends.ExecutionBackend`.
A ``threading.Thread`` created anywhere else can outlive a sweep and
mutate shared state behind the determinism guarantees (C404).
"""

from __future__ import annotations

import ast
from typing import Iterator

from .context import FileContext
from .findings import Finding
from .registry import Rule, register_rule

#: modules allowed to construct threads: the execution backends own the
#: project's concurrency model and document it
THREAD_ALLOWLIST = ("repro.experiments.backends",)


@register_rule
class ThreadCreationRule(Rule):
    """C404: ``threading.Thread`` constructed outside the backends.

    The execution backends own the project's concurrency model (worker
    *processes*, never threads, in every shipped backend) — a thread
    created anywhere else dodges that design review and, worse, can
    outlive a sweep and mutate shared state behind the determinism
    guarantees.  Deliberate exceptions take a justified
    ``# repro: allow[C404]``.
    """

    RULE_ID = "C404"
    RULE_DOC = (
        "threading.Thread created outside repro.experiments.backends; "
        "the backends own the threading model"
    )
    scope = "file"

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        if ctx.module is not None and ctx.module.startswith(THREAD_ALLOWLIST):
            return
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Call) and ctx.resolve_name(
                node.func
            ) == "threading.Thread":
                yield self.finding(
                    ctx, node,
                    "threading.Thread created outside the backends "
                    "allowlist; spawn work through an ExecutionBackend, "
                    "or justify with # repro: allow[C404]",
                )
