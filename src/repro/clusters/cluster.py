"""One cluster: issue queues, register files, functional units.

The paper splits every cluster into an integer half and a floating-point
half (15 issue-queue entries and 30 physical registers each).  The cluster
tracks occupancy; the pipeline owns instruction state and the per-cycle
select loop.

The occupancy checks sit on the steering fast path (every dispatch probes
every active cluster), so capacities are cached in slots and the FP test is
a table lookup rather than enum containment.
"""

from __future__ import annotations

from typing import List

from ..config import ClusterConfig
from ..errors import SimulationError
from ..workloads.instruction import OpClass
from .functional_units import _POOL_INDEX, _POOL_NAMES, FunctionalUnits

#: indexed by OpClass value: does the op use the FP half of the cluster?
_IS_FP = tuple(op in (OpClass.FP_ALU, OpClass.FP_MUL) for op in OpClass)

#: steering admission masks, indexed by OpClass value (healthy / dead)
_ALL_OK = tuple(True for _ in OpClass)
_NONE_OK = tuple(False for _ in OpClass)

#: wake sentinel: far beyond any reachable simulation cycle
NEVER = 1 << 60


class Cluster:
    """Occupancy bookkeeping for one cluster."""

    __slots__ = (
        "cid",
        "config",
        "fus",
        "_int_iq",
        "_fp_iq",
        "_int_regs",
        "_fp_regs",
        "_iq_cap",
        "_rf_cap",
        "issue_queue",
        "wake_cycle",
        "live",
        "steer_ok",
    )

    def __init__(self, cid: int, config: ClusterConfig) -> None:
        self.cid = cid
        self.config = config
        self.fus = FunctionalUnits(config)
        #: architectural-fault state: a dead cluster stays in the machine
        #: (its in-flight work drains) but admits no new instructions
        self.live = True
        #: per-OpClass admission mask consulted by steering; folds both
        #: liveness and disabled functional-unit pools into one tuple
        #: lookup on the dispatch fast path
        self.steer_ok = _ALL_OK
        self._int_iq = 0
        self._fp_iq = 0
        self._int_regs = 0
        self._fp_regs = 0
        self._iq_cap = config.issue_queue_size
        self._rf_cap = config.regfile_size
        #: in-flight instruction records waiting to issue (pipeline objects)
        self.issue_queue: List[object] = []
        #: earliest cycle anything in this cluster's queue could issue; the
        #: select loop skips the cluster entirely until then
        self.wake_cycle = 0

    # ------------------------------------------------------------------
    # capacity check used by steering

    def can_accept(self, op: OpClass, needs_reg: bool) -> bool:
        if _IS_FP[op]:
            return self._fp_iq < self._iq_cap and (
                not needs_reg or self._fp_regs < self._rf_cap
            )
        return self._int_iq < self._iq_cap and (
            not needs_reg or self._int_regs < self._rf_cap
        )

    @property
    def iq_occupancy(self) -> int:
        return self._int_iq + self._fp_iq

    @property
    def reg_occupancy(self) -> int:
        return self._int_regs + self._fp_regs

    def occupancy_by_half(self):
        """``(name, occupancy, capacity)`` per structure half, for the
        runtime invariant checker — occupancy may never leave
        ``[0, capacity]``."""
        iq_cap = self.config.issue_queue_size
        rf_cap = self.config.regfile_size
        return (
            ("int issue queue", self._int_iq, iq_cap),
            ("fp issue queue", self._fp_iq, iq_cap),
            ("int register file", self._int_regs, rf_cap),
            ("fp register file", self._fp_regs, rf_cap),
        )

    # ------------------------------------------------------------------
    # state transitions (called by the pipeline)

    def allocate(self, record: object, op: OpClass, needs_reg: bool) -> None:
        if _IS_FP[op]:
            if self._fp_iq >= self._iq_cap or (
                needs_reg and self._fp_regs >= self._rf_cap
            ):
                raise SimulationError(f"cluster {self.cid}: allocate without room")
            self._fp_iq += 1
            if needs_reg:
                self._fp_regs += 1
        else:
            if self._int_iq >= self._iq_cap or (
                needs_reg and self._int_regs >= self._rf_cap
            ):
                raise SimulationError(f"cluster {self.cid}: allocate without room")
            self._int_iq += 1
            if needs_reg:
                self._int_regs += 1
        self.issue_queue.append(record)

    def on_issue(self, record: object, op: OpClass) -> None:
        """The record left the issue queue (the list entry is removed by the
        pipeline's select loop)."""
        if _IS_FP[op]:
            self._fp_iq -= 1
        else:
            self._int_iq -= 1

    def on_commit(self, op: OpClass, needs_reg: bool) -> None:
        if needs_reg:
            if _IS_FP[op]:
                self._fp_regs -= 1
            else:
                self._int_regs -= 1

    def refresh_steer_mask(self, disabled_pools=()) -> None:
        """Recompute :attr:`steer_ok` from liveness + disabled FU pools.

        Disabling a pool only gates *steering*: instructions already in
        the issue queue still issue and drain (the advance-warning fault
        model — the pool is marked failing, not instantly lost).
        """
        if not self.live:
            self.steer_ok = _NONE_OK
        elif disabled_pools:
            self.steer_ok = tuple(
                _POOL_NAMES[_POOL_INDEX[op]] not in disabled_pools
                for op in OpClass
            )
        else:
            self.steer_ok = _ALL_OK

    def reset_for_drain_check(self) -> bool:
        """True if the cluster holds no instructions (fully drained)."""
        return (
            self._int_iq == 0
            and self._fp_iq == 0
            and self._int_regs == 0
            and self._fp_regs == 0
            and not self.issue_queue
        )
