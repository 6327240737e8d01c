"""Per-cluster functional units and operation latencies."""

from __future__ import annotations

from typing import Dict

from ..config import (
    ADDRESS_GEN_LATENCY,
    BRANCH_LATENCY,
    FP_ALU_LATENCY,
    FP_MUL_LATENCY,
    INT_ALU_LATENCY,
    INT_MUL_LATENCY,
    ClusterConfig,
)
from ..workloads.instruction import OpClass

#: which FU pool each op class issues to
FU_POOL: Dict[OpClass, str] = {
    OpClass.INT_ALU: "int_alu",
    OpClass.INT_MUL: "int_mul",
    OpClass.FP_ALU: "fp_alu",
    OpClass.FP_MUL: "fp_mul",
    OpClass.LOAD: "int_alu",  # address generation uses the integer ALU
    OpClass.STORE: "int_alu",
    OpClass.BRANCH: "int_alu",
}

#: execution latency per op class (loads add the memory system on top of
#: address generation; see the pipeline)
EXEC_LATENCY: Dict[OpClass, int] = {
    OpClass.INT_ALU: INT_ALU_LATENCY,
    OpClass.INT_MUL: INT_MUL_LATENCY,
    OpClass.FP_ALU: FP_ALU_LATENCY,
    OpClass.FP_MUL: FP_MUL_LATENCY,
    OpClass.LOAD: ADDRESS_GEN_LATENCY,
    OpClass.STORE: ADDRESS_GEN_LATENCY,
    OpClass.BRANCH: BRANCH_LATENCY,
}


#: pool index per OpClass value (int_alu=0, int_mul=1, fp_alu=2, fp_mul=3);
#: must stay consistent with FU_POOL above
_POOL_INDEX = (0, 1, 2, 3, 0, 0, 0)
_POOL_NAMES = ("int_alu", "int_mul", "fp_alu", "fp_mul")


class FunctionalUnits:
    """Issue-bandwidth tracker for one cluster, one cycle at a time.

    Table 1 gives each cluster one integer ALU, one integer mult/div, one FP
    ALU, and one FP mult/div; as many instructions can issue per cycle as
    there are free units.  All units are fully pipelined, so only issue
    bandwidth (not occupancy) is tracked — four integer counters, reset at
    the top of each select pass.
    """

    __slots__ = ("_capacity", "_free")

    def __init__(self, config: ClusterConfig) -> None:
        self._capacity = [
            config.int_alus,
            config.int_muls,
            config.fp_alus,
            config.fp_muls,
        ]
        self._free = list(self._capacity)

    def begin_cycle(self) -> None:
        self._free[:] = self._capacity

    def try_issue(self, op: OpClass) -> bool:
        pool = _POOL_INDEX[op]
        free = self._free
        if free[pool] > 0:
            free[pool] -= 1
            return True
        return False
