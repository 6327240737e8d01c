"""Dual unidirectional ring interconnect (the paper's primary topology)."""

from __future__ import annotations

from typing import List, Tuple

from .topology import Topology, ring_step


class RingTopology(Topology):
    """Two unidirectional rings.

    Clockwise link ``i`` connects node ``i`` to ``(i+1) % N`` and has id
    ``i``; counter-clockwise link ``i`` connects node ``i`` to ``(i-1) % N``
    and has id ``N + i``.  A 16-node ring therefore has 32 directed links and
    a maximum distance of 8 hops, exactly as in Section 2.3.

    Routing takes the direction with fewer hops (ties go clockwise).
    """

    def _links(self) -> List[Tuple[int, int]]:
        n = self.num_nodes
        return [(i, (i + 1) % n) for i in range(n)] + [
            (i, (i - 1) % n) for i in range(n)
        ]

    def _next_hop(self, node: int, dst: int) -> int:
        return ring_step(node, dst, self.num_nodes)
