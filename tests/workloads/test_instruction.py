"""Instruction and trace model."""

import pytest

from repro.workloads.instruction import Instr, OpClass, Trace


class TestOpClass:
    def test_fp_classification(self):
        assert OpClass.FP_ALU.is_fp and OpClass.FP_MUL.is_fp
        assert not OpClass.INT_ALU.is_fp
        assert not OpClass.LOAD.is_fp

    def test_mem_classification(self):
        assert OpClass.LOAD.is_mem and OpClass.STORE.is_mem
        assert not OpClass.BRANCH.is_mem


class TestInstr:
    def test_dest_semantics(self):
        assert Instr(0, 0, OpClass.INT_ALU).has_dest
        assert Instr(0, 0, OpClass.LOAD).has_dest
        assert not Instr(0, 0, OpClass.STORE).has_dest
        assert not Instr(0, 0, OpClass.BRANCH).has_dest

    def test_flags(self):
        b = Instr(0, 0x40, OpClass.BRANCH, taken=True, target=0x80, is_call=True)
        assert b.is_branch and b.is_call and not b.is_return
        ld = Instr(1, 0x44, OpClass.LOAD, addr=0x1000)
        assert ld.is_load and ld.is_mem and not ld.is_store


class TestTrace:
    def _make(self, n=5):
        return [Instr(i, 4 * i, OpClass.INT_ALU, src1=i - 1 if i else -1) for i in range(n)]

    def test_valid_trace(self):
        t = Trace("t", self._make())
        assert len(t) == 5
        assert t[2].index == 2
        assert t.branch_count == 0

    def test_bad_index_rejected(self):
        instrs = self._make()
        instrs[3].index = 7
        with pytest.raises(ValueError):
            Trace("t", instrs)

    def test_future_dependence_rejected(self):
        instrs = self._make()
        instrs[2].src1 = 4
        with pytest.raises(ValueError):
            Trace("t", instrs)

    def test_self_dependence_rejected(self):
        instrs = self._make()
        instrs[2].src1 = 2
        with pytest.raises(ValueError):
            Trace("t", instrs)

    def test_counts(self):
        instrs = self._make(4)
        instrs.append(Instr(4, 16, OpClass.LOAD, addr=0x10))
        instrs.append(Instr(5, 20, OpClass.BRANCH, taken=True, target=0))
        t = Trace("t", instrs)
        assert t.memref_count == 1
        assert t.branch_count == 1
        assert t.fp_fraction == 0.0
