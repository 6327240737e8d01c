"""Memory-system facades: centralized and decentralized timing paths."""

import pytest

from repro.config import decentralized_config, default_config
from repro.errors import ConfigError
from repro.interconnect.network import Network
from repro.memory.hierarchy import (
    CentralizedMemory,
    DecentralizedMemory,
    build_memory,
)
from repro.stats import SimStats
from repro.workloads.instruction import Instr, OpClass


def _central(num_clusters=16):
    config = default_config(num_clusters)
    stats = SimStats()
    net = Network(config.interconnect, num_clusters, stats)
    return CentralizedMemory(config, net, stats), stats


def _decentral(num_clusters=16):
    config = decentralized_config(num_clusters)
    stats = SimStats()
    net = Network(config.interconnect, num_clusters, stats)
    return DecentralizedMemory(config, net, stats), stats


def _ld(index, addr):
    return Instr(index, 0x40 + 4 * index, OpClass.LOAD, addr=addr)


def _st(index, addr):
    return Instr(index, 0x40 + 4 * index, OpClass.STORE, addr=addr)


class TestFactory:
    def test_builds_matching_type(self):
        config = default_config(4)
        stats = SimStats()
        net = Network(config.interconnect, 4, stats)
        assert isinstance(build_memory(config, net, stats), CentralizedMemory)
        dconfig = decentralized_config(4)
        assert isinstance(
            build_memory(dconfig, Network(dconfig.interconnect, 4, stats), stats),
            DecentralizedMemory,
        )

    def test_wrong_config_rejected(self):
        config = default_config(4)
        stats = SimStats()
        net = Network(config.interconnect, 4, stats)
        with pytest.raises(ConfigError):
            DecentralizedMemory(config, net, stats)


class TestCentralizedLoads:
    def test_home_cluster_load_latency(self):
        """A load from the home cluster pays no network cost: probe at the
        address cycle, data after the 6-cycle RAM access (plus a possible
        L2 trip on a cold miss)."""
        mem, stats = _central()
        load = _ld(0, 0x1000)
        mem.dispatch(load, cluster=0, cycle=5)
        mem.address_ready(load, cycle=10)
        [(idx, ready)] = mem.drain_completions()
        assert idx == 0
        # fully cold: 6 (L1 miss) + 25 (L2 miss) + 160 (memory), probe at 10
        assert ready == 10 + 6 + 25 + 160

    def test_warm_hit_latency(self):
        mem, stats = _central()
        first = _ld(0, 0x1000)
        mem.dispatch(first, 0, 1)
        mem.address_ready(first, 2)
        mem.drain_completions()
        mem.commit(first, 50)
        second = _ld(1, 0x1000)
        mem.dispatch(second, 0, 60)
        mem.address_ready(second, 61)
        [(_, ready)] = mem.drain_completions()
        assert ready == 61 + 6  # L1 hit
        assert stats.l1_hits == 1

    def test_remote_cluster_pays_hops(self):
        mem, stats = _central()
        load = _ld(0, 0x1000)
        mem.dispatch(load, cluster=8, cycle=1)  # 8 hops from home on the ring
        mem.address_ready(load, cycle=10)
        [(_, ready)] = mem.drain_completions()
        assert ready >= 10 + 8 + 6 + 25 + 8

    def test_store_commit_writes_cache(self):
        mem, stats = _central()
        store = _st(0, 0x2000)
        mem.dispatch(store, 0, 1)
        mem.address_ready(store, 2)
        mem.commit(store, 10)
        load = _ld(1, 0x2000)
        mem.dispatch(load, 0, 20)
        mem.address_ready(load, 21)
        [(_, ready)] = mem.drain_completions()
        assert ready == 21 + 6  # hits the line the store allocated

    def test_forwarding_from_inflight_store(self):
        mem, stats = _central()
        store = _st(0, 0x3000)
        load = _ld(1, 0x3000)
        mem.dispatch(store, 0, 1)
        mem.dispatch(load, 0, 1)
        mem.address_ready(store, 5)
        mem.address_ready(load, 6)
        [(_, ready)] = mem.drain_completions()
        assert ready == 6 + 1  # LSQ forwarding, no RAM access

    def test_lsq_capacity_gates_dispatch(self):
        mem, stats = _central(num_clusters=1)  # capacity 15
        for i in range(15):
            assert mem.can_dispatch(_ld(i, 0x100 + 4 * i))
            mem.dispatch(_ld(i, 0x100 + 4 * i), 0, 1)
        assert not mem.can_dispatch(_ld(15, 0x200))


class TestDecentralized:
    def test_bank_mapping_follows_active_count(self):
        mem, _ = _decentral(16)
        assert mem.bank_cluster(0x08) == 1  # 8-byte interleave
        assert mem.bank_cluster(0x80) == 0
        mem.set_banks(range(4), cycle=0)
        assert mem.bank_cluster(0x08) == 1
        assert mem.bank_cluster(0x20) == 0  # wraps at 4 banks now

    def test_preferred_cluster_uses_predictor(self):
        mem, _ = _decentral(16)
        load = _ld(0, 0x08)
        # train the speculative path: the same PC always touches bank 1
        for _ in range(6):
            _, token = mem.predictor.predict_speculative(load.pc)
            mem.predictor.resolve(token, 1)
        assert mem.preferred_cluster(load) == 1

    def test_bank_mispredict_counted(self):
        mem, stats = _decentral(16)
        load = _ld(0, 0x08)  # actual bank 1
        mem.dispatch(load, cluster=3, cycle=1)  # steered wrong
        mem.address_ready(load, cycle=5)
        assert stats.bank_predictions == 1
        assert stats.bank_mispredictions == 1
        assert mem.drain_completions()  # still completes (re-routed)

    def test_store_broadcast_counted(self):
        mem, stats = _decentral(16)
        store = _st(0, 0x10)
        mem.dispatch(store, cluster=0, cycle=1)
        mem.address_ready(store, cycle=5)
        assert stats.store_broadcasts == 1

    def test_reconfigure_flushes_dirty_lines(self):
        mem, stats = _decentral(16)
        store = _st(0, 0x10)
        mem.dispatch(store, cluster=2, cycle=1)
        mem.address_ready(store, cycle=2)
        mem.commit(store, 10)  # dirty line in bank 2
        stall = mem.set_banks(range(4), cycle=20)
        assert stall > 0
        assert stats.cache_flushes == 1
        assert stats.flush_writebacks >= 1

    def test_reconfigure_same_count_is_free(self):
        mem, stats = _decentral(16)
        assert mem.set_banks(range(16), cycle=5) == 0
        assert stats.cache_flushes == 0

    def test_load_completes_at_requesting_cluster(self):
        mem, stats = _decentral(16)
        load = _ld(0, 0x08)  # bank 1
        mem.dispatch(load, cluster=1, cycle=1)
        mem.address_ready(load, cycle=5)
        [(idx, ready)] = mem.drain_completions()
        assert idx == 0
        assert ready >= 5 + 4  # at least the bank RAM latency
