"""Route-table integrity: every fabric, and proof the checker bites.

The torus and ring-of-rings bring wraparound links and hub indirection —
exactly the wiring classes where an off-by-one builds a *plausible* but
wrong route table.  The positive half walks every route of every
topology against ``link_endpoints()`` and checks it against a
breadth-first search of the same links; the negative half arms the
``scramble_topology`` fault (:mod:`repro.faults`) and proves a full
simulation with invariant checking on reports the corruption as a
:class:`~repro.errors.SimulationError` instead of committing statistics.
"""

from collections import deque

import pytest

from repro.config import InterconnectConfig
from repro.errors import SimulationError
from repro.interconnect import (
    GridTopology,
    HierRingTopology,
    RingTopology,
    TorusTopology,
    build_topology,
)
from repro.faults import FaultPlan, clear_fault_plan, set_fault_plan

ALL_TOPOLOGIES = ("ring", "grid", "torus", "ring-of-rings")


def walk(topology):
    """Assert every route is a connected link chain from src to dst."""
    endpoints = topology.link_endpoints()
    for src in range(topology.num_nodes):
        for dst in range(topology.num_nodes):
            at = src
            for link in topology.route(src, dst):
                head, tail = endpoints[link]
                assert head == at, (src, dst, link)
                at = tail
            assert at == dst, (src, dst)


def bfs_distances(topology, src):
    """Hop distance from ``src`` to every node over the real links."""
    neighbours = {}
    for head, tail in topology.link_endpoints().values():
        neighbours.setdefault(head, []).append(tail)
    distance = {src: 0}
    frontier = deque([src])
    while frontier:
        node = frontier.popleft()
        for nxt in neighbours.get(node, ()):
            if nxt not in distance:
                distance[nxt] = distance[node] + 1
                frontier.append(nxt)
    return distance


@pytest.mark.parametrize("name", ALL_TOPOLOGIES)
@pytest.mark.parametrize("nodes", (4, 8, 16))
def test_every_route_is_a_connected_chain(name, nodes):
    walk(build_topology(InterconnectConfig(topology=name), nodes))


@pytest.mark.parametrize("name", ALL_TOPOLOGIES)
def test_every_route_is_a_shortest_path(name):
    """No routing rule takes a detour: at every size from 1 to 32 nodes,
    each route is as long as the shortest path a breadth-first search
    finds over the fabric's own links, and ``hops`` is that length."""
    for nodes in range(1, 33):
        topology = build_topology(InterconnectConfig(topology=name), nodes)
        walk(topology)
        longest = 0
        for src in range(nodes):
            distance = bfs_distances(topology, src)
            for dst in range(nodes):
                assert (
                    len(topology.route(src, dst))
                    == topology.hops(src, dst)
                    == distance[dst]
                ), (nodes, src, dst)
            longest = max(longest, *distance.values())
        assert topology.max_hops() == longest


def test_link_endpoints_cover_every_link():
    for topology in (
        RingTopology(16),
        GridTopology(16),
        TorusTopology(16),
        HierRingTopology(16),
    ):
        endpoints = topology.link_endpoints()
        assert sorted(endpoints) == list(range(topology.num_links))
        for link, (head, tail) in endpoints.items():
            assert head != tail, link
            assert 0 <= head < topology.num_nodes
            assert 0 <= tail < topology.num_nodes


class TestTorusShape:
    def test_wraparound_shortens_edges(self):
        torus, grid = TorusTopology(16), GridTopology(16)
        # corner to corner: 6 grid hops, 2 torus hops via the wrap links
        assert grid.hops(0, 15) == 6
        assert torus.hops(0, 15) == 2
        assert torus.max_hops() == 4

    def test_link_count(self):
        # 4x4: every node has 4 outgoing links (wrap included)
        assert TorusTopology(16).num_links == 64


class TestHierRingShape:
    def test_hub_indirection(self):
        hr = HierRingTopology(16)
        # cross-group traffic must transit both hubs (nodes 0,4,8,12)
        assert hr.max_hops() == 6
        assert hr.num_links == 40

    def test_local_traffic_stays_local(self):
        hr = HierRingTopology(16)
        # within a group of 4, the worst case is the 2-hop half-ring
        for base in (0, 4, 8, 12):
            for a in range(base, base + 4):
                for b in range(base, base + 4):
                    assert hr.hops(a, b) <= 2


class TestScrambledTopologyIsCaught:
    """A deliberately miswired fabric must fail loudly, not plausibly."""

    @pytest.fixture(autouse=True)
    def armed_plan(self):
        set_fault_plan(FaultPlan(scramble_topology=True))
        yield
        clear_fault_plan()

    @pytest.mark.parametrize("name", ("torus", "ring-of-rings", "grid"))
    def test_invariant_checker_reports_broken_routes(self, name):
        from repro import simulate

        with pytest.raises(SimulationError, match=r"\[topology\]"):
            simulate("gzip", trace_length=2_000, topology=name)

    def test_walk_detects_truncation_directly(self):
        topology = build_topology(InterconnectConfig(topology="torus"), 16)
        with pytest.raises(AssertionError):
            walk(topology)
