"""Hierarchical ring-of-rings interconnect.

Clusters are partitioned into groups; each group is a small dual
unidirectional ring (as in :class:`~repro.interconnect.ring.RingTopology`)
and the first node of every group doubles as that group's *hub*.  The
hubs themselves form a dual unidirectional global ring.  A cross-group
message therefore travels local ring -> hub -> global ring -> hub ->
local ring, which rewards allocators that keep a thread's clusters inside
one group: intra-group traffic never touches the contended global ring.

For 16 clusters in groups of 4 this gives 40 directed links and a
maximum distance of 6 hops — between the flat ring (32 links, 8 hops)
and the grid (48 links, 6 hops), but with a much sharper locality cliff.
"""

from __future__ import annotations

from typing import List, Tuple

from .topology import Topology, near_square_side, ring_step


class HierRingTopology(Topology):
    """Ring of rings: local group rings bridged by a global hub ring.

    A local ring holds ``group = near_square_side(num_nodes)`` nodes (16
    clusters form 4 groups of 4); node ``g * group`` is group ``g``'s hub.
    """

    def __init__(self, num_nodes: int) -> None:
        self.group = near_square_side(num_nodes)
        self.num_groups = num_nodes // self.group
        super().__init__(num_nodes)

    def _links(self) -> List[Tuple[int, int]]:
        group, hubs = self.group, self.num_groups
        # local rings first (group order, cw then ccw), then the hub ring
        candidates = [
            (g * group + i, g * group + (i + step) % group)
            for g in range(hubs)
            for step in (1, -1)
            for i in range(group)
        ] + [
            (g * group, (g + step) % hubs * group)
            for step in (1, -1)
            for g in range(hubs)
        ]
        # a 1- or 2-node ring reaches itself or one neighbour both ways
        return [link for link in dict.fromkeys(candidates) if link[0] != link[1]]

    def hub(self, node: int) -> int:
        """The hub node of ``node``'s group."""
        return (node // self.group) * self.group

    def _next_hop(self, node: int, dst: int) -> int:
        base, dst_hub = self.hub(node), self.hub(dst)
        if base == dst_hub:
            return base + ring_step(node - base, dst - base, self.group)
        if node != base:
            return base + ring_step(node - base, 0, self.group)
        group = self.group
        return ring_step(node // group, dst_hub // group, self.num_groups) * group
