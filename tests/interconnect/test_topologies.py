"""Ring and grid topologies: link counts, distances, routing.

The closed-form distances (the shorter way round the ring, the Manhattan
distance on the grid) are the references the route tables must meet.
"""

import pytest

from repro.interconnect.grid import GridTopology
from repro.interconnect.ring import RingTopology


class TestRing:
    def test_paper_link_count(self):
        """Section 2.3: a 16-cluster system has 32 total links."""
        assert RingTopology(16).num_links == 32

    def test_paper_max_hops(self):
        """Section 2.3: maximum number of hops between nodes is 8."""
        assert RingTopology(16).max_hops() == 8

    def test_hops_symmetric(self):
        ring = RingTopology(16)
        for s in range(16):
            for d in range(16):
                assert ring.hops(s, d) == ring.hops(d, s)

    def test_self_distance_zero(self):
        ring = RingTopology(8)
        assert all(ring.hops(i, i) == 0 for i in range(8))
        assert all(ring.route(i, i) == () for i in range(8))

    def test_shortest_direction(self):
        ring = RingTopology(16)
        assert ring.hops(0, 1) == 1
        assert ring.hops(0, 15) == 1
        assert ring.hops(0, 8) == 8

    def test_route_length_matches_hops(self):
        ring = RingTopology(16)
        for s in range(16):
            for d in range(16):
                closed_form = min((d - s) % 16, (s - d) % 16)
                assert len(ring.route(s, d)) == ring.hops(s, d) == closed_form

    def test_route_uses_valid_link_ids(self):
        ring = RingTopology(8)
        for s in range(8):
            for d in range(8):
                for link in ring.route(s, d):
                    assert 0 <= link < ring.num_links

    def test_cw_and_ccw_links_distinct(self):
        ring = RingTopology(4)
        cw = ring.route(0, 1)
        ccw = ring.route(1, 0)
        assert set(cw).isdisjoint(set(ccw))

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            RingTopology(4).route(0, 5)


class TestGrid:
    def test_paper_link_count(self):
        """Section 2.3: 16 clusters in a grid have 48 total links."""
        assert GridTopology(16).num_links == 48

    def test_paper_max_hops(self):
        """Section 2.3: grid maximum hops is 6."""
        assert GridTopology(16).max_hops() == 6

    def test_manhattan_distance(self):
        grid = GridTopology(16)  # 4x4
        assert grid.hops(0, 15) == 6
        assert grid.hops(0, 3) == 3
        assert grid.hops(0, 12) == 3
        assert grid.hops(5, 6) == 1

    def test_route_length_matches_hops(self):
        grid = GridTopology(16)
        for s in range(16):
            for d in range(16):
                (r, c), (dr, dc) = divmod(s, 4), divmod(d, 4)
                closed_form = abs(r - dr) + abs(c - dc)
                assert len(grid.route(s, d)) == grid.hops(s, d) == closed_form

    def test_xy_routing_goes_x_first(self):
        grid = GridTopology(16)
        # 0 -> 5: X to column 1 (node 1), then Y to node 5
        route = grid.route(0, 5)
        assert len(route) == 2

    def test_non_square_grid(self):
        grid = GridTopology(8)  # falls back to a 2-row arrangement
        assert grid.rows * grid.cols == 8
        assert grid.max_hops() < 8

    def test_grid_beats_ring_on_diameter(self):
        """The motivation for the grid in Section 6: better connectivity."""
        assert GridTopology(16).max_hops() < RingTopology(16).max_hops()
