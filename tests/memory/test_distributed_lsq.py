"""Distributed LSQ with the dummy-slot store protocol (Section 5)."""

import pytest

from repro.errors import SimulationError
from repro.memory.distributed_lsq import DistributedLSQ
from repro.memory.lsq import MemAccess


def _load(index, addr, cluster):
    return MemAccess(index, cluster, addr, is_store=False)


def _store(index, addr, cluster):
    return MemAccess(index, cluster, addr, is_store=True)


class TestAllocation:
    def test_load_occupies_one_slice(self):
        lsq = DistributedLSQ(4, 2)
        lsq.allocate_load(_load(0, 0x10, cluster=2))
        assert lsq.occupancy(2) == 1
        assert lsq.occupancy(0) == 0

    def test_store_occupies_every_active_slice(self):
        """The dummy-slot protocol: a store reserves an entry everywhere."""
        lsq = DistributedLSQ(4, 2)
        lsq.allocate_store(_store(0, 0x10, cluster=1), banks=(0, 1, 2, 3))
        assert all(lsq.occupancy(k) == 1 for k in range(4))

    def test_store_respects_active_subset(self):
        lsq = DistributedLSQ(4, 2)
        lsq.allocate_store(_store(0, 0x10, cluster=0), banks=(0, 1))
        assert lsq.occupancy(0) == 1 and lsq.occupancy(1) == 1
        assert lsq.occupancy(2) == 0

    def test_capacity_checks(self):
        lsq = DistributedLSQ(2, 1)
        lsq.allocate_load(_load(0, 0x10, cluster=0))
        assert not lsq.can_allocate_load(0)
        assert lsq.can_allocate_load(1)
        assert not lsq.can_allocate_store((0, 1))

    def test_overflow_raises(self):
        lsq = DistributedLSQ(2, 1)
        lsq.allocate_load(_load(0, 0x10, cluster=0))
        with pytest.raises(SimulationError):
            lsq.allocate_load(_load(1, 0x20, cluster=0))


class TestDummyRelease:
    def test_dummies_freed_at_broadcast_arrival(self):
        lsq = DistributedLSQ(4, 2)
        store = _store(0, 0x18, cluster=1)  # bank 3 under 8B interleave? set below
        lsq.allocate_store(store, banks=(0, 1, 2, 3))
        # broadcast arrivals per cluster; bank cluster is 2 -> kept until commit
        lsq.store_address_ready(0, bank_cluster=2, arrivals={0: 10, 1: 5, 2: 7, 3: 12})
        lsq.tick(9)
        assert lsq.occupancy(1) == 0   # arrival 5
        assert lsq.occupancy(2) == 1   # kept (bank cluster)
        assert lsq.occupancy(3) == 1   # arrival 12 not reached
        lsq.tick(12)
        assert lsq.occupancy(3) == 0
        assert lsq.occupancy(2) == 1

    def test_release_frees_kept_slot(self):
        lsq = DistributedLSQ(4, 2)
        lsq.allocate_store(_store(0, 0x18, cluster=1), banks=(0, 1, 2, 3))
        lsq.store_address_ready(0, bank_cluster=2, arrivals={k: 5 for k in range(4)})
        lsq.tick(5)
        lsq.release(0)
        assert all(lsq.occupancy(k) == 0 for k in range(4))


class TestLoadBlocking:
    def test_load_blocked_by_unresolved_store(self):
        lsq = DistributedLSQ(4, 4)
        lsq.allocate_store(_store(0, 0x100, cluster=0), banks=(0, 1, 2, 3))
        lsq.allocate_load(_load(1, 0x200, cluster=1))
        lsq.load_address_ready(1, arrival=20)
        assert lsq.schedulable_loads() == []
        lsq.store_address_ready(0, bank_cluster=0, arrivals={k: 30 for k in range(4)})
        assert [a.index for a in lsq.schedulable_loads()] == [1]

    def test_probe_uses_per_cluster_arrival(self):
        lsq = DistributedLSQ(4, 4)
        lsq.allocate_store(_store(0, 0x100, cluster=0), banks=(0, 1, 2, 3))
        lsq.allocate_load(_load(1, 0x200, cluster=3))
        lsq.store_address_ready(0, bank_cluster=0, arrivals={0: 10, 1: 11, 2: 12, 3: 40})
        lsq.load_address_ready(1, arrival=20)
        (load,) = lsq.schedulable_loads()
        barrier, forward = lsq.probe_constraints(load, bank_cluster=3)
        assert barrier == 40
        assert not forward

    def test_forwarding_same_word(self):
        lsq = DistributedLSQ(4, 4)
        lsq.allocate_store(_store(0, 0x100, cluster=0), banks=(0, 1, 2, 3))
        lsq.allocate_load(_load(1, 0x100, cluster=0))
        lsq.store_address_ready(0, bank_cluster=0, arrivals={k: 10 for k in range(4)})
        lsq.load_address_ready(1, arrival=20)
        (load,) = lsq.schedulable_loads()
        barrier, forward = lsq.probe_constraints(load, bank_cluster=0)
        assert forward


class TestValidation:
    def test_bad_params(self):
        with pytest.raises(ValueError):
            DistributedLSQ(0, 1)
        with pytest.raises(ValueError):
            DistributedLSQ(4, 0)
