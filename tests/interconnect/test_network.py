"""Contention-aware network model."""

import random

import pytest

from repro.config import InterconnectConfig
from repro.errors import ConfigError
from repro.interconnect.network import Network, build_topology
from repro.interconnect.grid import GridTopology
from repro.interconnect.ring import RingTopology
from repro.stats import SimStats


def _net(**kw):
    return Network(InterconnectConfig(**kw), 16, SimStats())


class TestFactory:
    def test_ring(self):
        assert isinstance(build_topology(InterconnectConfig(topology="ring"), 8), RingTopology)

    def test_grid(self):
        assert isinstance(build_topology(InterconnectConfig(topology="grid"), 16), GridTopology)


class TestLatency:
    def test_local_transfer_free(self):
        net = _net()
        assert net.transfer(3, 3, 100) == 100

    def test_uncontended_latency_is_hops(self):
        net = _net()
        assert net.uncontended_latency(0, 4) == 4
        assert net.uncontended_latency(0, 15) == 1  # 1 hop around the ring
        # on idle links a transfer takes exactly that long
        assert net.transfer(0, 4, 10) == 14

    def test_hop_latency_scales(self):
        net = _net(hop_latency=2)
        assert net.uncontended_latency(0, 4) == 8
        assert net.transfer(0, 4, 10) == 18

    def test_contended_at_least_uncontended(self):
        net = _net()
        for d in range(1, 16):
            assert net.transfer(0, d, 5) >= 5 + net.uncontended_latency(0, d)


class TestContention:
    def test_same_link_same_cycle_serializes(self):
        net = _net()
        a = net.transfer(0, 1, 10)
        b = net.transfer(0, 1, 10)
        assert a == 11
        assert b == 12  # second transfer waits one cycle for the link

    def test_different_links_independent(self):
        net = _net()
        a = net.transfer(0, 1, 10)
        b = net.transfer(5, 6, 10)
        assert a == b == 11

    def test_out_of_order_requests_fill_gaps(self):
        """A far-future booking must not starve earlier cycles."""
        net = _net()
        late = net.transfer(0, 1, 1000)
        early = net.transfer(0, 1, 10)
        assert late == 1001
        assert early == 11


class TestIdealization:
    def test_free_memory_communication(self):
        net = _net(free_memory_communication=True)
        assert net.transfer(0, 8, 10, kind="memory") == 10
        assert net.transfer(0, 8, 10, kind="register") > 10

    def test_free_register_communication(self):
        net = _net(free_register_communication=True)
        assert net.transfer(0, 8, 10, kind="register") == 10
        assert net.transfer(0, 8, 10, kind="memory") > 10


class TestLinkDegrade:
    """The one link fault (driven by repro.resilience): a slower wire."""

    def make(self):
        return Network(InterconnectConfig(topology="ring"), 8)

    def test_degrade_multiplies_latency(self):
        net = self.make()
        healthy = net.uncontended_latency(0, 1)
        assert not net.is_degraded
        assert net.degrade_link(0, 1, factor=4)
        assert net.is_degraded
        assert net.uncontended_latency(0, 1) == healthy * 4
        assert net.uncontended_latency(1, 0) == healthy * 4  # both directions
        # other links unaffected, and routes never change
        assert net.uncontended_latency(2, 3) == healthy
        assert len(net.topology.route(0, 1)) == 1
        assert not net.degrade_link(0, 1, factor=4)  # same factor: no-op

    def test_require_link_rejects_non_neighbours(self):
        net = self.make()
        net.require_link(0, 1)
        with pytest.raises(ConfigError, match="physical neighbours"):
            net.require_link(0, 4)

    def test_transfer_pays_degraded_cost(self):
        fast = self.make()
        slow = self.make()
        slow.degrade_link(0, 1, factor=8)
        assert slow.transfer(0, 1, 0) > fast.transfer(0, 1, 0)


class TestStats:
    def test_register_transfer_accounting(self):
        stats = SimStats()
        net = Network(InterconnectConfig(), 16, stats)
        net.transfer(0, 4, 10, kind="register")
        assert stats.register_transfers == 1
        assert stats.register_transfer_cycles == 4

    def test_memory_transfer_accounting(self):
        stats = SimStats()
        net = Network(InterconnectConfig(), 16, stats)
        net.transfer(0, 2, 10, kind="memory")
        assert stats.memory_transfers == 1
        assert stats.memory_transfer_cycles == 2

    def test_local_transfers_not_counted(self):
        stats = SimStats()
        net = Network(InterconnectConfig(), 16, stats)
        net.transfer(5, 5, 10)
        assert stats.register_transfers == 0


class TestBroadcast:
    def test_broadcast_reaches_all(self):
        net = _net()
        worst = max(net.broadcast_arrivals(0, 10, kind="memory").values())
        assert worst == 10 + 8  # ring diameter

    def test_broadcast_counts_transfers(self):
        stats = SimStats()
        net = Network(InterconnectConfig(), 16, stats)
        net.broadcast_arrivals(0, 10, kind="memory")
        assert stats.memory_transfers == 15


def _hop_by_hop_broadcast(net, src, start_cycle):
    """Reference model: the circulating ring broadcast walked one hop at a
    time, each hop's link derived from its direction, each node's arrival
    the earlier of the two copies, and every counter bumped per hop."""
    n = net.topology.num_nodes
    hop = net.config.hop_latency
    arrivals = {src: start_cycle}
    for direction, link_of in (
        (1, lambda node: node),  # clockwise link id == source node
        (-1, lambda node: n + node),  # ccw link id == N + source node
    ):
        node = src
        ready = start_cycle
        steps = n // 2 if direction == 1 else (n - 1) // 2
        for _ in range(steps):
            ready = net._links.reserve(link_of(node), ready) + hop
            node = (node + direction) % n
            arrivals[node] = min(arrivals.get(node, ready), ready)
            net.messages_sent += 1
            net.stats.memory_transfers += 1
            net.stats.memory_transfer_cycles += ready - start_cycle
    return arrivals


class TestBroadcastAgainstHopByHopModel:
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 16])
    def test_every_source_matches(self, n):
        config = InterconnectConfig()
        for src in range(n):
            rng = random.Random(n * 1000 + src)
            nets = [Network(config, n, SimStats()) for _ in range(2)]
            bookings = [
                (rng.randrange(n), rng.randrange(n), rng.randrange(40))
                for _ in range(3 * n)
            ]
            for net in nets:
                for a, b, start in bookings:
                    net.transfer(a, b, start, kind="register")
            table, model = nets
            # several broadcasts, so later ones queue behind earlier ones
            for start in (rng.randrange(40) for _ in range(3)):
                assert table.broadcast_arrivals(src, start) == (
                    _hop_by_hop_broadcast(model, src, start)
                )
            assert table.messages_sent == model.messages_sent
            assert table.stats.memory_transfers == model.stats.memory_transfers
            assert (
                table.stats.memory_transfer_cycles
                == model.stats.memory_transfer_cycles
            )
            assert table._links._booked == model._links._booked
