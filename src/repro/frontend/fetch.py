"""Fetch unit.

Models the centralized front end of the clustered processor (Section 2):

* fetch width 8, across up to two basic blocks per cycle (Table 1);
* a 64-entry fetch queue decoupling fetch from dispatch;
* a 12-stage front-end pipe between fetch and dispatch, which is what makes
  the branch-misprediction penalty "at least 12 cycles";
* a combining direction predictor + BTB + return-address stack.  On a
  misprediction, fetch stalls until the branch resolves in its cluster and
  the redirect travels back to the front end over the interconnect (the
  caller supplies that delay).

The simulator is trace driven, so the cost of a misprediction is the fetch
hole until the post-resolution redirect; no wrong-path instructions are
fetched.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Optional, Tuple

from ..config import FrontEndConfig
from ..stats import SimStats
from ..workloads.instruction import Instr, Trace
from .btb import BranchTargetBuffer
from .combining import CombiningPredictor
from .ras import ReturnAddressStack


class FetchUnit:
    """Fetches instructions from a trace into the dispatch-visible queue."""

    def __init__(
        self,
        trace: Trace,
        config: FrontEndConfig,
        stats: SimStats,
    ) -> None:
        self.trace = trace
        self.config = config
        self.stats = stats
        self.predictor = CombiningPredictor.from_config(config)
        self.btb = BranchTargetBuffer(config.btb_sets, config.btb_assoc)
        self.ras = ReturnAddressStack(config.ras_size)

        self._pos = 0
        # the raw instruction list, hoisted out of the per-cycle fetch loop
        self._instructions = trace.instructions
        self._trace_len = len(trace.instructions)
        # queue of (instr, cycle at which it reaches dispatch)
        self._queue: Deque[Tuple[Instr, int]] = deque()
        self._stalled_until = 0
        #: trace index of the unresolved mispredicted branch, if any
        self.pending_mispredict: Optional[int] = None

    # ------------------------------------------------------------------
    # prediction

    def _predict_branch(self, instr: Instr) -> bool:
        """Run the predictors for ``instr``; return True if fetch must stop
        (mispredicted direction or unknown target)."""
        mispredicted = False
        if instr.is_return:
            predicted_target = self.ras.pop()
            if predicted_target != instr.target:
                mispredicted = True
        elif instr.is_call:
            self.ras.push(instr.pc + 4)
            # unconditional: only the target can be wrong
            if self.btb.lookup(instr.pc) != instr.target:
                mispredicted = True
            self.btb.update(instr.pc, instr.target)
        else:
            predicted_taken = self.predictor.predict_update(instr.pc, instr.taken)
            if predicted_taken != instr.taken:
                mispredicted = True
            elif instr.taken and self.btb.lookup(instr.pc) != instr.target:
                # right direction, unknown/stale target: a misfetch that
                # costs the same redirect as a misprediction
                mispredicted = True
            if instr.taken:
                # the BTB caches taken targets only; not-taken executions
                # must not overwrite them with the fall-through
                self.btb.update(instr.pc, instr.target)
        return mispredicted

    # ------------------------------------------------------------------
    # per-cycle operation

    def fetch(self, cycle: int) -> None:
        """Fetch up to one cycle's worth of instructions."""
        if self.pending_mispredict is not None or cycle < self._stalled_until:
            return
        fetched = 0
        branches = 0
        cfg = self.config
        queue = self._queue
        instructions = self._instructions
        trace_len = self._trace_len
        queue_cap = cfg.fetch_queue_size
        fetch_width = cfg.fetch_width
        max_blocks = cfg.max_basic_blocks_per_fetch
        ready_at = cycle + cfg.pipeline_depth
        pos = self._pos
        while fetched < fetch_width and pos < trace_len and len(queue) < queue_cap:
            instr = instructions[pos]
            pos += 1
            fetched += 1
            queue.append((instr, ready_at))
            if instr.is_branch:
                branches += 1
                if self._predict_branch(instr):
                    self.stats.mispredicts += 1
                    self.pending_mispredict = instr.index
                    break
                if branches >= max_blocks:
                    break
        self._pos = pos
        self.stats.fetched += fetched

    def branch_resolved(self, branch_index: int, resume_cycle: int) -> None:
        """The mispredicted branch ``branch_index`` resolved; fetch may
        restart at ``resume_cycle`` (resolution + redirect latency)."""
        if self.pending_mispredict == branch_index:
            self.pending_mispredict = None
            self._stalled_until = resume_cycle

    # ------------------------------------------------------------------
    # dispatch interface

    def peek_ready(self, cycle: int) -> Optional[Instr]:
        """The next instruction available for dispatch this cycle, if any."""
        if self._queue and self._queue[0][1] <= cycle:
            return self._queue[0][0]
        return None

    def pop(self) -> Instr:
        return self._queue.popleft()[0]

    @property
    def exhausted(self) -> bool:
        """True when the whole trace has been fetched and drained."""
        return self._pos >= len(self.trace) and not self._queue
