"""2-D grid interconnect with XY (dimension-ordered) routing (Section 6),
and the torus: the same grid with wraparound links in both dimensions."""

from __future__ import annotations

from typing import List, Tuple

from .topology import Topology, near_square_side, ring_step


class GridTopology(Topology):
    """Clusters laid out in a 2-D array; each connects to up to four
    neighbours.  A 4x4 grid has 24 undirected edges = 48 directed links and
    a maximum distance of 6 hops, matching the paper.

    Messages route X first, then Y (deadlock-free dimension-ordered
    routing).
    """

    #: close the grid edges into rings (see :class:`TorusTopology`)
    wrap = False

    def __init__(self, num_nodes: int) -> None:
        self.cols = near_square_side(num_nodes)
        self.rows = num_nodes // self.cols
        super().__init__(num_nodes)

    def _links(self) -> List[Tuple[int, int]]:
        candidates: List[Tuple[int, int]] = []
        for node in range(self.num_nodes):
            r, c = divmod(node, self.cols)
            for dr, dc in ((0, 1), (0, -1), (1, 0), (-1, 0)):
                nr, nc = r + dr, c + dc
                if self.wrap:
                    nr, nc = nr % self.rows, nc % self.cols
                elif not (0 <= nr < self.rows and 0 <= nc < self.cols):
                    continue
                candidates.append((node, nr * self.cols + nc))
        # a wrapped dimension of 1 or 2 nodes reaches the node itself or
        # one neighbour both ways: one link each, none to itself
        return [link for link in dict.fromkeys(candidates) if link[0] != link[1]]

    def _step(self, at: int, to: int, size: int) -> int:
        if self.wrap:
            return ring_step(at, to, size)
        return at + 1 if to > at else at - 1

    def _next_hop(self, node: int, dst: int) -> int:
        r, c = divmod(node, self.cols)
        dr, dc = divmod(dst, self.cols)
        if c != dc:
            return r * self.cols + self._step(c, dc, self.cols)
        return self._step(r, dr, self.rows) * self.cols + c


class TorusTopology(GridTopology):
    """A grid with wraparound links in both dimensions.

    Every cluster sees a symmetric neighbourhood, so the open grid's worse
    corner clusters cannot bias a comparison of allocation arbiters.  A
    4x4 torus has 64 directed links and a maximum distance of 4 hops.
    Messages route X first, then Y, each the shorter way round (ties go
    toward the higher index).
    """

    wrap = True
