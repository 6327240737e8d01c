"""Interconnect topologies.

A topology enumerates *directed* links between clusters and routes every
(src, dst) pair over them.  Section 2.3 of the paper considers a **ring**
of two unidirectional rings (16 clusters -> 32 links, worst case 8 hops)
and a 2-D **grid** with XY routing (16 clusters -> 48 links, worst case 6
hops); the torus and the ring of rings extend them for the
multiprogramming study.
"""

from __future__ import annotations

import math
from typing import Dict, List, Sequence, Tuple


def ring_step(at: int, to: int, size: int) -> int:
    """The next position on the shorter way round a ring of ``size``
    positions from ``at`` to ``to`` (ties go forward, i.e. clockwise)."""
    if (to - at) % size <= (at - to) % size:
        return (at + 1) % size
    return (at - 1) % size


def near_square_side(num_nodes: int) -> int:
    """The divisor of ``num_nodes`` nearest its square root, from below:
    16 nodes lay out 4 x 4, 8 nodes 4 x 2, a prime count in one line."""
    side = max(1, int(round(math.sqrt(max(1, num_nodes)))))
    while num_nodes % side:
        side -= 1
    return side


class Topology:
    """Base class: a set of directed links plus a static routing rule.

    A fabric defines ``_links()``, its directed links as ``(source,
    destination)`` pairs, where a link's id is its position in the list,
    and ``_next_hop(node, dst)``, the neighbour a message at ``node``
    moves to on its way to ``dst``.  The route table is built here, once.
    """

    def __init__(self, num_nodes: int) -> None:
        if num_nodes < 1:
            raise ValueError("num_nodes must be positive")
        self.num_nodes = num_nodes
        self._ends: Tuple[Tuple[int, int], ...] = tuple(self._links())
        link_of: Dict[Tuple[int, int], int] = {}
        for link, ends in enumerate(self._ends):
            # the first listed wins: a 2-node ring joins its pair both ways
            link_of.setdefault(ends, link)
        self._routes: List[List[Tuple[int, ...]]] = [
            [self._walk(src, dst, link_of) for dst in range(num_nodes)]
            for src in range(num_nodes)
        ]

    def _links(self) -> List[Tuple[int, int]]:
        raise NotImplementedError

    def _next_hop(self, node: int, dst: int) -> int:
        raise NotImplementedError

    def _walk(self, node: int, dst: int, link_of: Dict) -> Tuple[int, ...]:
        links: List[int] = []
        while node != dst:
            nxt = self._next_hop(node, dst)
            links.append(link_of[node, nxt])
            node = nxt
        return tuple(links)

    @property
    def num_links(self) -> int:
        return len(self._ends)

    def route(self, src: int, dst: int) -> Sequence[int]:
        """The directed link ids traversed from ``src`` to ``dst``."""
        self._check(src, dst)
        return self._routes[src][dst]

    def hops(self, src: int, dst: int) -> int:
        self._check(src, dst)
        return len(self._routes[src][dst])

    def max_hops(self) -> int:
        return max(len(route) for row in self._routes for route in row)

    def link_endpoints(self) -> Dict[int, Tuple[int, int]]:
        """Map each directed link id to its ``(source, destination)`` nodes
        (the invariant checker walks every route against this table)."""
        return dict(enumerate(self._ends))

    def _check(self, src: int, dst: int) -> None:
        if not (0 <= src < self.num_nodes and 0 <= dst < self.num_nodes):
            raise ValueError(f"node out of range: {src} -> {dst}")
