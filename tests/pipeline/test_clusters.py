"""Cluster resources: occupancy, functional units."""

import pytest

from repro.config import ClusterConfig
from repro.clusters.cluster import Cluster
from repro.clusters.functional_units import EXEC_LATENCY, FU_POOL, FunctionalUnits
from repro.errors import SimulationError
from repro.workloads.instruction import OpClass


class TestFunctionalUnits:
    def test_one_issue_per_unit_per_cycle(self):
        fus = FunctionalUnits(ClusterConfig())
        fus.begin_cycle()
        assert fus.try_issue(OpClass.INT_ALU)
        assert not fus.try_issue(OpClass.INT_ALU)
        assert fus.try_issue(OpClass.FP_ALU)
        assert fus.try_issue(OpClass.INT_MUL)

    def test_begin_cycle_resets(self):
        fus = FunctionalUnits(ClusterConfig())
        fus.begin_cycle()
        fus.try_issue(OpClass.INT_ALU)
        fus.begin_cycle()
        assert fus.try_issue(OpClass.INT_ALU)

    def test_loads_and_branches_share_int_alu(self):
        """Address generation and branch resolution use the integer ALU."""
        assert FU_POOL[OpClass.LOAD] == "int_alu"
        assert FU_POOL[OpClass.STORE] == "int_alu"
        assert FU_POOL[OpClass.BRANCH] == "int_alu"
        fus = FunctionalUnits(ClusterConfig())
        fus.begin_cycle()
        assert fus.try_issue(OpClass.LOAD)
        assert not fus.try_issue(OpClass.BRANCH)

    def test_wider_clusters(self):
        fus = FunctionalUnits(ClusterConfig(int_alus=2))
        fus.begin_cycle()
        assert fus.try_issue(OpClass.INT_ALU)
        assert fus.try_issue(OpClass.INT_ALU)
        assert not fus.try_issue(OpClass.INT_ALU)

    def test_latencies_sane(self):
        assert EXEC_LATENCY[OpClass.INT_ALU] == 1
        assert EXEC_LATENCY[OpClass.FP_ALU] > 1
        assert EXEC_LATENCY[OpClass.INT_MUL] > EXEC_LATENCY[OpClass.INT_ALU]


class TestClusterOccupancy:
    def _cluster(self, iq=2, regs=3):
        return Cluster(0, ClusterConfig(issue_queue_size=iq, regfile_size=regs))

    def test_iq_fills_separately_per_type(self):
        c = self._cluster(iq=1)
        c.allocate(object(), OpClass.INT_ALU, needs_reg=True)
        assert not c.can_accept(OpClass.INT_ALU, needs_reg=False)
        assert c.can_accept(OpClass.FP_ALU, needs_reg=False)  # fp queue is separate

    def test_regs_fill_separately_per_type(self):
        c = self._cluster(regs=1)
        c.allocate(object(), OpClass.INT_ALU, needs_reg=True)
        assert not c.can_accept(OpClass.INT_MUL, needs_reg=True)
        assert c.can_accept(OpClass.INT_MUL, needs_reg=False)  # the queue has room
        assert c.can_accept(OpClass.FP_ALU, needs_reg=True)

    def test_stores_need_no_register(self):
        c = self._cluster(regs=1)
        c.allocate(object(), OpClass.INT_ALU, needs_reg=True)
        assert c.can_accept(OpClass.STORE, needs_reg=False)

    def test_issue_frees_iq_not_regs(self):
        c = self._cluster(iq=1, regs=2)
        rec = object()
        c.allocate(rec, OpClass.INT_ALU, needs_reg=True)
        c.on_issue(rec, OpClass.INT_ALU)
        assert c.can_accept(OpClass.INT_ALU, needs_reg=False)
        assert c.reg_occupancy == 1

    def test_commit_frees_reg(self):
        c = self._cluster(regs=1)
        rec = object()
        c.allocate(rec, OpClass.INT_ALU, needs_reg=True)
        c.on_issue(rec, OpClass.INT_ALU)
        c.on_commit(OpClass.INT_ALU, needs_reg=True)
        assert c.can_accept(OpClass.INT_ALU, needs_reg=True)

    def test_overflow_raises(self):
        c = self._cluster(iq=1)
        c.allocate(object(), OpClass.INT_ALU, needs_reg=True)
        with pytest.raises(SimulationError):
            c.allocate(object(), OpClass.INT_ALU, needs_reg=True)

    def test_drain_check(self):
        c = self._cluster()
        assert c.reset_for_drain_check()
        rec = object()
        c.allocate(rec, OpClass.INT_ALU, needs_reg=True)
        assert not c.reset_for_drain_check()
