"""Reorder buffer and in-flight instruction state."""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Optional, Tuple

from ..errors import SimulationError
from ..workloads.instruction import Instr


class InFlight:
    """Pipeline state of one dispatched, not-yet-committed instruction."""

    __slots__ = (
        "instr",
        "cluster",
        "dispatch_cycle",
        "earliest_issue",
        "op_avail",
        "unknown_ops",
        "ready_time",
        "issued",
        "finish_cycle",
        "addr_done",
        "remote_ready",
        "waiters",
        "distant",
        "store_split",
    )

    def __init__(
        self, instr: Instr, cluster: int, dispatch_cycle: int, earliest_issue: int
    ) -> None:
        self.instr = instr
        self.cluster = cluster
        self.dispatch_cycle = dispatch_cycle
        self.earliest_issue = earliest_issue
        #: per-operand availability cycle in this cluster (None = unknown)
        self.op_avail: List[Optional[int]] = [0, 0]
        self.unknown_ops = 0
        self.ready_time = 0
        self.issued = False
        #: cycle the result is available in the producing cluster
        self.finish_cycle: Optional[int] = None
        #: stores: cycle the address computation finished
        self.addr_done: Optional[int] = None
        #: cached arrival cycles of the result at other clusters
        self.remote_ready: Dict[int, int] = {}
        #: consumers waiting for this result: (consumer, operand position)
        self.waiters: List[Tuple["InFlight", int]] = []
        self.distant = False
        #: stores issue on the address operand alone; the data operand
        #: (position 1) only gates completion, as in a real store queue
        self.store_split = instr.is_store

    def operand_known(self, pos: int, avail: int) -> None:
        """Record operand availability; refresh readiness when complete."""
        if pos == 1 and self.store_split:
            self.op_avail[1] = avail
            if self.addr_done is not None:
                self.finish_cycle = avail if avail >= self.addr_done else self.addr_done
            return
        self.op_avail[pos] = avail
        self.unknown_ops -= 1
        if self.unknown_ops == 0:
            a0 = self.op_avail[0] or 0
            a1 = 0 if self.store_split else (self.op_avail[1] or 0)
            self.ready_time = a0 if a0 >= a1 else a1


class ReorderBuffer:
    """In-order window of in-flight instructions (Table 1: 480 entries)."""

    def __init__(self, size: int) -> None:
        if size < 1:
            raise ValueError("ROB size must be positive")
        self.size = size
        self._entries: Deque[InFlight] = deque()

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def full(self) -> bool:
        return len(self._entries) >= self.size

    @property
    def empty(self) -> bool:
        return not self._entries

    @property
    def head_index(self) -> int:
        """Trace index of the oldest in-flight instruction."""
        return self._entries[0].instr.index if self._entries else -1

    def push(self, record: InFlight) -> None:
        if self.full:
            raise SimulationError("push to a full ROB")
        self._entries.append(record)

    def __iter__(self):
        return iter(self._entries)
