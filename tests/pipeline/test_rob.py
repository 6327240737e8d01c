"""Reorder buffer and in-flight instruction records."""

import pytest

from repro.errors import SimulationError
from repro.pipeline.rob import InFlight, ReorderBuffer
from repro.workloads.instruction import Instr, OpClass


def _rec(index, op=OpClass.INT_ALU, cluster=0):
    return InFlight(Instr(index, 4 * index, op), cluster, dispatch_cycle=1, earliest_issue=2)


class TestReorderBuffer:
    def test_fifo_order(self):
        rob = ReorderBuffer(4)
        a, b = _rec(0), _rec(1)
        rob.push(a)
        rob.push(b)
        assert list(rob) == [a, b]

    def test_capacity(self):
        rob = ReorderBuffer(2)
        rob.push(_rec(0))
        rob.push(_rec(1))
        assert rob.full
        with pytest.raises(SimulationError):
            rob.push(_rec(2))

    def test_head_index(self):
        rob = ReorderBuffer(4)
        assert rob.head_index == -1
        rob.push(_rec(7))
        assert rob.head_index == 7

    def test_validation(self):
        with pytest.raises(ValueError):
            ReorderBuffer(0)


class TestInFlightOperands:
    def test_known_operands_set_ready_time(self):
        rec = _rec(5)
        rec.op_avail = [None, None]
        rec.unknown_ops = 2
        rec.operand_known(0, 10)
        assert rec.unknown_ops == 1
        rec.operand_known(1, 30)
        assert rec.unknown_ops == 0
        assert rec.ready_time == 30

    def test_store_splits_data_operand(self):
        rec = _rec(5, op=OpClass.STORE)
        assert rec.store_split
        rec.op_avail = [None, None]
        rec.unknown_ops = 1  # only the address operand counts
        rec.operand_known(1, 99)  # data operand: does not affect readiness
        assert rec.unknown_ops == 1
        rec.operand_known(0, 10)
        assert rec.unknown_ops == 0
        assert rec.ready_time == 10  # data availability ignored for issue

    def test_store_data_after_issue_sets_finish(self):
        rec = _rec(5, op=OpClass.STORE)
        rec.op_avail = [0, None]
        rec.addr_done = 20
        rec.operand_known(1, 35)
        assert rec.finish_cycle == 35
        rec2 = _rec(6, op=OpClass.STORE)
        rec2.op_avail = [0, None]
        rec2.addr_done = 50
        rec2.operand_known(1, 35)
        assert rec2.finish_cycle == 50  # address dominated

    def test_non_store_ready_uses_both_operands(self):
        rec = _rec(5, op=OpClass.INT_ALU)
        rec.op_avail = [None, 40]
        rec.unknown_ops = 1
        rec.operand_known(0, 15)
        assert rec.ready_time == 40
