"""Centralized LSQ disambiguation and forwarding."""

import pytest

from repro.errors import SimulationError
from repro.memory.lsq import CentralizedLSQ, MemAccess


def _load(index, addr, cluster=0):
    return MemAccess(index, cluster, addr, is_store=False)


def _store(index, addr, cluster=0):
    return MemAccess(index, cluster, addr, is_store=True)


class TestCapacity:
    def test_full_flag(self):
        lsq = CentralizedLSQ(2)
        lsq.allocate(_load(0, 0x10))
        assert not lsq.full
        lsq.allocate(_store(1, 0x20))
        assert lsq.full

    def test_overflow_raises(self):
        lsq = CentralizedLSQ(1)
        lsq.allocate(_load(0, 0x10))
        with pytest.raises(SimulationError):
            lsq.allocate(_load(1, 0x20))

    def test_release_frees_space(self):
        lsq = CentralizedLSQ(1)
        lsq.allocate(_load(0, 0x10))
        lsq.release(0)
        lsq.allocate(_load(1, 0x20))

    def test_validation(self):
        with pytest.raises(ValueError):
            CentralizedLSQ(0)


class TestDefaultDisambiguation:
    """Address-precise policy: only same-word stores block."""

    def test_load_with_no_stores_schedules_immediately(self):
        lsq = CentralizedLSQ(8)
        lsq.allocate(_load(0, 0x10))
        lsq.load_address_ready(0, arrival=50)
        ready = lsq.schedulable_loads()
        assert [a.index for a in ready] == [0]

    def test_unrelated_unresolved_store_does_not_block(self):
        lsq = CentralizedLSQ(8)
        lsq.allocate(_store(0, 0x100))
        lsq.allocate(_load(1, 0x200))
        lsq.load_address_ready(1, arrival=50)
        assert [a.index for a in lsq.schedulable_loads()] == [1]

    def test_same_word_unresolved_store_blocks(self):
        lsq = CentralizedLSQ(8)
        lsq.allocate(_store(0, 0x100))
        lsq.allocate(_load(1, 0x100))
        lsq.load_address_ready(1, arrival=50)
        assert lsq.schedulable_loads() == []
        lsq.store_address_ready(0, arrival=80)
        ready = lsq.schedulable_loads()
        assert [a.index for a in ready] == [1]

    def test_later_store_never_blocks(self):
        lsq = CentralizedLSQ(8)
        lsq.allocate(_load(0, 0x100))
        lsq.allocate(_store(1, 0x100))  # younger than the load
        lsq.load_address_ready(0, arrival=50)
        assert [a.index for a in lsq.schedulable_loads()] == [0]

    def test_forwarding_detected(self):
        lsq = CentralizedLSQ(8)
        lsq.allocate(_store(0, 0x100))
        lsq.allocate(_load(1, 0x100))
        lsq.store_address_ready(0, arrival=30)
        lsq.load_address_ready(1, arrival=50)
        (load,) = lsq.schedulable_loads()
        barrier, forward = lsq.probe_constraints(load)
        assert forward
        assert barrier == 30

    def test_no_forwarding_for_different_word(self):
        lsq = CentralizedLSQ(8)
        lsq.allocate(_store(0, 0x104))
        lsq.allocate(_load(1, 0x100))
        lsq.store_address_ready(0, arrival=30)
        lsq.load_address_ready(1, arrival=50)
        (load,) = lsq.schedulable_loads()
        barrier, forward = lsq.probe_constraints(load)
        assert not forward
        assert barrier == 0  # unrelated store does not constrain the probe


class TestRelease:
    def test_release_returns_access(self):
        lsq = CentralizedLSQ(4)
        lsq.allocate(_store(3, 0xABC))
        access = lsq.release(3)
        assert access.index == 3 and access.is_store

    def test_release_unblocks_nothing_spurious(self):
        lsq = CentralizedLSQ(4)
        lsq.allocate(_store(0, 0x100))
        lsq.allocate(_load(1, 0x100))
        lsq.load_address_ready(1, arrival=10)
        assert lsq.schedulable_loads() == []
        lsq.store_address_ready(0, arrival=20)
        lsq.release(0)
        # the load is still pending and now schedulable
        assert [a.index for a in lsq.schedulable_loads()] == [1]
