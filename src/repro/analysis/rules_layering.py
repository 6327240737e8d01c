"""L-rules: layering.

The architecture is a one-directional stack::

    errors, timing, _version                     (0)
    stats, config, resilience, observability     (1)
    workloads, energy, faults                    (2)
    frontend, clusters, interconnect             (3)
    memory                                       (4)
    pipeline                                     (5)
    core                                         (6)
    experiments                                  (7)
    api, partition                               (8)
    cli, analysis                                (9)
    __init__, __main__                           (10)

A module may import strictly *down* the stack (lower rank).  Sibling
modules at the same rank are independent by design (the four rank-3
hardware-model packages know nothing of each other), so same-rank
cross-imports are back-edges too.  Function-local (lazy) imports count:
laziness changes *when* a cycle bites, not whether the layering holds.

L202 separately bans the three retired pre-facade call spellings inside
the repo now that :mod:`repro.api` is the stable surface — both *calling*
them and *reintroducing* the ``*args`` compatibility shims that once
serviced them.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, Optional

from .context import FileContext, ProjectContext
from .findings import Finding
from .registry import Rule, register_rule

#: top-level component of ``repro`` -> layer rank (lower = more fundamental)
LAYER_RANKS: Dict[str, int] = {
    "errors": 0,
    "timing": 0,
    "stats": 1,
    "config": 1,
    # architectural fault schedules (value objects the pipeline, multiprog
    # scheduler, and sweep engine all consume; imports only errors)
    "resilience": 1,
    # the chaos-harness fault plan: imports only errors, and interconnect
    # consults its topology-scramble hook, so it is a rank-1 leaf
    "faults": 1,
    # tracing sinks/exporters: a leaf the simulator stack emits into
    # (pipeline and core both import it, so it must sit below rank 5)
    "observability": 1,
    "workloads": 2,
    "energy": 2,
    "frontend": 3,
    "clusters": 3,
    "interconnect": 3,
    # memory sits above interconnect: the decentralized cache routes bank
    # transfers over the cluster network (hierarchy.py imports Network)
    "memory": 4,
    "pipeline": 5,
    "core": 6,
    "multiprog": 6,
    "experiments": 7,
    "api": 8,
    "partition": 8,
    "cli": 9,
    "analysis": 9,
    "_version": 0,
    "__init__": 10,
    "__main__": 10,
}


def _head_of(dotted: str) -> Optional[str]:
    """Top-level ``repro`` component of an absolute dotted import target."""
    parts = dotted.split(".")
    if parts[0] != "repro":
        return None
    return parts[1] if len(parts) > 1 else "__init__"


@register_rule
class LayeringRule(Rule):
    """L201: import against the layering (up-stack or cross-sibling)."""

    RULE_ID = "L201"
    RULE_DOC = (
        "layering violation: a repro module may only import strictly "
        "lower-ranked repro modules"
    )
    scope = "project"

    def check(self, project: ProjectContext) -> Iterator[Finding]:
        for ctx in project.repro_files():
            head = ctx.module_head
            rank = LAYER_RANKS.get(head)
            if rank is None or head in ("__init__", "__main__"):
                # package root re-exports everything by design
                continue
            for edge in ctx.imports:
                target_head = _head_of(edge.target)
                if target_head is None or target_head == head:
                    continue
                target_rank = LAYER_RANKS.get(target_head)
                if target_rank is None:
                    yield Finding(
                        ctx.display_path, edge.lineno, edge.col, self.RULE_ID,
                        f"import of unknown repro component "
                        f"repro.{target_head}; add it to the layer map in "
                        f"repro.analysis.rules_layering",
                    )
                elif target_rank >= rank:
                    direction = (
                        "up-stack" if target_rank > rank else "cross-sibling"
                    )
                    yield Finding(
                        ctx.display_path, edge.lineno, edge.col, self.RULE_ID,
                        f"{direction} import: repro.{head} (layer {rank}) "
                        f"imports repro.{target_head} (layer {target_rank})",
                        detail={
                            "importer": ctx.module,
                            "imported": edge.target,
                        },
                    )


#: the retired pre-facade spellings: callable origin -> maximum number
#: of positional arguments the keyword-era signature accepts
_LEGACY_POSITIONAL_LIMITS = {
    # engine entry point: simulate(trace, config, *, controller=, ...)
    "repro.pipeline.processor.simulate": 2,
    # runner entry point: run_trace(trace, config, controller=None, *, ...)
    "repro.experiments.runner.run_trace": 3,
    # facade: simulate(workload, **spec-kwargs); positional config/controller
    # selected the removed SimStats-returning shim
    "repro.api.simulate": 1,
    "repro.simulate": 1,
}

#: entry-point definitions whose signatures must stay shim-free:
#: module -> function names that may not grow a ``*args`` vararg back
_SHIM_FREE_ENTRY_POINTS = {
    "repro.pipeline.processor": frozenset({"simulate"}),
    "repro.experiments.runner": frozenset({"run_trace"}),
    "repro.api": frozenset({"simulate"}),
}


@register_rule
class LegacyEntryPointRule(Rule):
    """L202: retired pre-facade call spellings.

    The three legacy entry-point spellings (positional
    ``config``/``controller``/``warmup`` arguments to ``api.simulate``,
    ``pipeline.processor.simulate`` and ``experiments.runner.run_trace``)
    went through a :class:`DeprecationWarning` cycle and were then removed.
    The rule keeps them dead in both directions: no repo-internal *call*
    may use the positional spelling, and the entry-point *definitions*
    themselves may not grow back the ``*args`` remap shim that once
    serviced external callers.
    """

    RULE_ID = "L202"
    RULE_DOC = (
        "retired pre-facade entry-point spelling: positional call or "
        "reintroduced *args compatibility shim"
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        guarded = _SHIM_FREE_ENTRY_POINTS.get(ctx.module, frozenset())
        for node in ast.walk(ctx.tree):
            if (
                isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                and node.name in guarded
                and node.args.vararg is not None
            ):
                yield self.finding(
                    ctx, node,
                    f"entry point {ctx.module}.{node.name} grew back a "
                    f"*{node.args.vararg.arg} vararg; the positional-shim "
                    f"era is over — keep the keyword-only signature",
                    callee=f"{ctx.module}.{node.name}",
                    vararg=node.args.vararg.arg,
                )
                continue
            if not isinstance(node, ast.Call):
                continue
            dotted = ctx.resolve_name(node.func)
            if dotted is None:
                continue
            limit = _LEGACY_POSITIONAL_LIMITS.get(dotted)
            if limit is None:
                continue
            positional = [a for a in node.args if not isinstance(a, ast.Starred)]
            if len(node.args) > len(positional):
                continue  # *args splat: cannot judge statically
            if len(positional) > limit:
                yield self.finding(
                    ctx, node,
                    f"retired positional spelling of {dotted} "
                    f"({len(positional)} positional args; keyword-era "
                    f"signature takes {limit})",
                    callee=dotted,
                    positional=len(positional),
                )
