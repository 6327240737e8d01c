"""Dynamic instruction model.

The simulator is trace driven: a workload is a sequence of :class:`Instr`
records, one per *dynamic* instruction.  Data dependences are encoded as the
trace indices of the producing instructions (``-1`` when the operand is
immediately available — an immediate, a loop invariant, or a value produced
before the simulation window).  This makes register renaming implicit while
still letting the steering heuristic see exactly which cluster produced each
operand, which is all the paper's mechanisms need.
"""

from __future__ import annotations

from enum import IntEnum
from typing import List


class OpClass(IntEnum):
    """Functional-unit class of an instruction."""

    INT_ALU = 0
    INT_MUL = 1
    FP_ALU = 2
    FP_MUL = 3
    LOAD = 4
    STORE = 5
    BRANCH = 6

    @property
    def is_fp(self) -> bool:
        return self in (OpClass.FP_ALU, OpClass.FP_MUL)

    @property
    def is_mem(self) -> bool:
        return self in (OpClass.LOAD, OpClass.STORE)


#: op classes that write a register the steering heuristic must place
_HAS_DEST = {
    OpClass.INT_ALU: True,
    OpClass.INT_MUL: True,
    OpClass.FP_ALU: True,
    OpClass.FP_MUL: True,
    OpClass.LOAD: True,
    OpClass.STORE: False,
    OpClass.BRANCH: False,
}

# per-op-class flag tables indexed by the IntEnum value; consulted once in
# Instr.__init__ so the pipeline reads plain slot attributes instead of
# calling properties (the former dominate the simulator's profile)
_HAS_DEST_T = tuple(_HAS_DEST[op] for op in OpClass)
_IS_BRANCH_T = tuple(op is OpClass.BRANCH for op in OpClass)
_IS_MEM_T = tuple(op in (OpClass.LOAD, OpClass.STORE) for op in OpClass)
_IS_LOAD_T = tuple(op is OpClass.LOAD for op in OpClass)
_IS_STORE_T = tuple(op is OpClass.STORE for op in OpClass)
_IS_FP_T = tuple(op in (OpClass.FP_ALU, OpClass.FP_MUL) for op in OpClass)


class Instr:
    """One dynamic instruction.

    Attributes:
        index: position in the trace (also the implicit destination tag).
        pc: static program counter (drives all predictors and the
            fine-grained reconfiguration table).
        op: the :class:`OpClass`.
        src1, src2: trace indices of producer instructions, or ``-1``.
        addr: effective byte address for loads/stores (0 otherwise).
        taken: actual branch outcome (branches only).
        target: actual next PC when taken (branches only).
        is_call / is_return: subroutine boundary markers (branches only).
    """

    __slots__ = (
        "index",
        "pc",
        "op",
        "src1",
        "src2",
        "addr",
        "taken",
        "target",
        "is_call",
        "is_return",
        "has_dest",
        "is_branch",
        "is_mem",
        "is_load",
        "is_store",
        "is_fp",
    )

    def __init__(
        self,
        index: int,
        pc: int,
        op: OpClass,
        src1: int = -1,
        src2: int = -1,
        addr: int = 0,
        taken: bool = False,
        target: int = 0,
        is_call: bool = False,
        is_return: bool = False,
    ) -> None:
        self.index = index
        self.pc = pc
        self.op = op
        self.src1 = src1
        self.src2 = src2
        self.addr = addr
        self.taken = taken
        self.target = target
        self.is_call = is_call
        self.is_return = is_return
        # derived flags, precomputed once (instructions are immutable)
        self.has_dest = _HAS_DEST_T[op]
        self.is_branch = _IS_BRANCH_T[op]
        self.is_mem = _IS_MEM_T[op]
        self.is_load = _IS_LOAD_T[op]
        self.is_store = _IS_STORE_T[op]
        self.is_fp = _IS_FP_T[op]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        extra = ""
        if self.is_mem:
            extra = f" addr={self.addr:#x}"
        if self.is_branch:
            extra = f" taken={self.taken}"
        return (
            f"Instr(#{self.index} pc={self.pc:#x} {self.op.name}"
            f" src=({self.src1},{self.src2}){extra})"
        )


class Trace:
    """A complete dynamic instruction trace plus metadata."""

    def __init__(self, name: str, instructions: List[Instr]) -> None:
        self.name = name
        self.instructions = instructions
        self._validate()

    def _validate(self) -> None:
        for i, instr in enumerate(self.instructions):
            if instr.index != i:
                raise ValueError(
                    f"trace {self.name!r}: instruction {i} has index {instr.index}"
                )
            if instr.src1 >= i or instr.src2 >= i:
                raise ValueError(
                    f"trace {self.name!r}: instruction {i} depends on the future"
                )

    def __len__(self) -> int:
        return len(self.instructions)

    def __getitem__(self, i: int) -> Instr:
        return self.instructions[i]

    def __iter__(self):
        return iter(self.instructions)

    @property
    def branch_count(self) -> int:
        return sum(1 for i in self.instructions if i.is_branch)

    @property
    def memref_count(self) -> int:
        return sum(1 for i in self.instructions if i.is_mem)

    @property
    def fp_fraction(self) -> float:
        if not self.instructions:
            return 0.0
        return sum(1 for i in self.instructions if i.is_fp) / len(self.instructions)
