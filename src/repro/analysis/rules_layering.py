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
"""

from __future__ import annotations

from typing import Dict, Iterator, Optional

from .context import ProjectContext
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

