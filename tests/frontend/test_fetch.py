"""Fetch unit: width, basic-block limits, mispredict stalls, queue timing."""

from repro.config import FrontEndConfig
from repro.stats import SimStats
from repro.frontend.fetch import FetchUnit
from repro.workloads.instruction import Instr, OpClass, Trace


def _alu(i, pc=None):
    return Instr(i, pc if pc is not None else 4 * i, OpClass.INT_ALU)


def _branch(i, pc, taken, target=0x5000, **kw):
    return Instr(i, pc, OpClass.BRANCH, taken=taken, target=target, **kw)


def _trace(instrs):
    return Trace("t", instrs)


def _unit(trace, **kw):
    config = FrontEndConfig(**kw)
    return FetchUnit(trace, config, SimStats())


class TestBandwidth:
    def test_fetch_width_limit(self):
        trace = _trace([_alu(i) for i in range(20)])
        f = _unit(trace)
        f.fetch(1)
        assert len(f._queue) == 8

    def test_two_basic_blocks_per_cycle(self):
        instrs = []
        for i in range(12):
            if i % 3 == 2:
                instrs.append(_branch(i, 4 * i, taken=False))
            else:
                instrs.append(_alu(i))
        f = _unit(_trace(instrs))
        # pre-train the direction predictor so neither branch mispredicts
        for pc in (8, 20):
            for _ in range(4):
                f.predictor.update(pc, False)
        f.fetch(1)
        # stops after the second branch (index 5), even though width is 8
        assert len(f._queue) == 6

    def test_queue_capacity(self):
        trace = _trace([_alu(i) for i in range(200)])
        f = _unit(trace, fetch_queue_size=16)
        for cycle in range(1, 10):
            f.fetch(cycle)
        assert len(f._queue) == 16


class TestPipelineDepth:
    def test_instructions_ready_after_depth(self):
        trace = _trace([_alu(i) for i in range(4)])
        f = _unit(trace, pipeline_depth=12)
        f.fetch(1)
        assert f.peek_ready(5) is None
        assert f.peek_ready(13) is not None

    def test_pop_preserves_order(self):
        trace = _trace([_alu(i) for i in range(4)])
        f = _unit(trace)
        f.fetch(1)
        got = []
        while f.peek_ready(100) is not None:
            got.append(f.pop().index)
        assert got == [0, 1, 2, 3]


class TestMisprediction:
    def _mispredicting_trace(self):
        # a branch whose direction the fresh predictor gets right (weakly
        # taken counters predict taken) but whose target is unknown -> BTB
        # misfetch on first encounter
        return _trace([_alu(0), _branch(1, 0x40, taken=True), _alu(2), _alu(3)])

    def test_stall_until_resolved(self):
        f = _unit(self._mispredicting_trace())
        f.fetch(1)
        assert f.pending_mispredict == 1
        assert len(f._queue) == 2  # the branch itself was fetched
        f.fetch(2)
        assert len(f._queue) == 2  # stalled
        f.branch_resolved(1, resume_cycle=20)
        f.fetch(10)
        assert len(f._queue) == 2  # still before resume
        f.fetch(20)
        assert len(f._queue) == 4

    def test_mispredict_counted(self):
        f = _unit(self._mispredicting_trace())
        f.fetch(1)
        assert f.stats.mispredicts == 1

    def test_resolution_of_other_branch_ignored(self):
        f = _unit(self._mispredicting_trace())
        f.fetch(1)
        f.branch_resolved(99, resume_cycle=5)
        assert f.pending_mispredict == 1

    def test_predictable_branch_does_not_stall(self):
        # not-taken branch: fresh bimodal predicts taken -> mispredict; train
        # first via repeated outcomes using a small deterministic trace
        instrs = []
        idx = 0
        for rep in range(30):
            instrs.append(_branch(idx, 0x40, taken=True, target=0x80))
            idx += 1
        f = _unit(_trace(instrs))
        cycle = 0
        resolved = 0
        while not f.exhausted and cycle < 1000:
            cycle += 1
            f.fetch(cycle)
            if f.pending_mispredict is not None:
                f.branch_resolved(f.pending_mispredict, cycle + 1)
                resolved += 1
            while f.peek_ready(cycle) is not None:
                f.pop()
        # after the first misfetch, the loop branch is fully predictable
        assert f.stats.mispredicts <= 2


class TestCallReturn:
    def test_ras_predicts_matched_return(self):
        instrs = [
            _branch(0, 0x40, taken=True, target=0x1000, is_call=True),
            _alu(1, pc=0x1000),
            _branch(2, 0x1004, taken=True, target=0x44, is_return=True),
            _alu(3, pc=0x44),
        ]
        f = _unit(_trace(instrs))
        cycle = 0
        while not f.exhausted and cycle < 200:
            cycle += 1
            f.fetch(cycle)
            if f.pending_mispredict is not None:
                f.branch_resolved(f.pending_mispredict, cycle + 1)
            while f.peek_ready(cycle) is not None:
                f.pop()
        # the call misses the BTB once; the return must be RAS-predicted
        assert f.stats.mispredicts <= 1


class TestExhaustion:
    def test_exhausted_after_drain(self):
        trace = _trace([_alu(i) for i in range(3)])
        f = _unit(trace)
        assert not f.exhausted
        f.fetch(1)
        while f.peek_ready(50) is not None:
            f.pop()
        assert f.exhausted
