"""Cluster-allocation arbiters: who gets which clusters, and when.

Three fixed policies, keyed by name in :data:`ARBITERS`.  Each hands out
the initial partition; the two dynamic ones also see :class:`ThreadView`
snapshots and the free-cluster list at every epoch boundary and return a
list of ``("grant" | "reclaim", thread, cluster)`` actions, which the
scheduler applies to the :class:`~repro.multiprog.ledger.ClusterLedger`.
All choice functions are deterministic with explicit id tie-breaks — a
multiprog run is a pure function of its spec, exactly like a
single-threaded run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple, Type

from ..interconnect.topology import Topology

#: one arbiter decision: ("grant" | "reclaim", thread index, cluster id)
Action = Tuple[str, int, int]


@dataclass(frozen=True)
class ThreadView:
    """What an arbiter may know about one thread at an epoch boundary."""

    index: int
    finished: bool
    #: owned clusters, ascending id order
    owned: Tuple[int, ...]


class StaticArbiter:
    """Fixed equal partition for the whole run.

    Never reclaims — a finished thread's clusters idle until the end,
    which is exactly the throughput loss the dynamic arbiters exist to
    recover.  The multiprog baseline.
    """

    def __init__(
        self, num_clusters: int, num_threads: int, topology: Topology
    ) -> None:
        self.num_clusters = num_clusters
        self.num_threads = num_threads
        self.topology = topology

    def initial_allocation(self) -> Tuple[Tuple[int, ...], ...]:
        """Per-thread cluster sets at cycle 0 (covering every cluster).

        Equal contiguous id blocks, remainders to the lowest-indexed
        threads — contiguous ids are physically adjacent on the ring and
        row-adjacent on the grid/torus.
        """
        share, extra = divmod(self.num_clusters, self.num_threads)
        blocks: List[Tuple[int, ...]] = []
        start = 0
        for thread in range(self.num_threads):
            size = share + (1 if thread < extra else 0)
            blocks.append(tuple(range(start, start + size)))
            start += size
        return tuple(blocks)


class RoundRobinArbiter(StaticArbiter):
    """Epoch-based reclaim that equalizes cluster counts.

    Each epoch it (1) grants every free cluster, lowest id first, to the
    currently poorest unfinished thread, (2) reclaims everything still
    owned by finished threads, and (3) if the owned-count spread among
    unfinished threads exceeds one, reclaims the richest thread's
    highest-id cluster (one per epoch, so reallocation is gradual and the
    drain pipeline stays short).
    """

    def rebalance(
        self, views: Sequence[ThreadView], free: Tuple[int, ...]
    ) -> List[Action]:
        """Actions to apply at this epoch boundary."""
        unfinished = [v for v in views if not v.finished]
        if not unfinished:
            return []
        actions: List[Action] = []
        # post-grant ownership, so consecutive grants see each other
        owned: Dict[int, List[int]] = {v.index: list(v.owned) for v in unfinished}
        remaining = list(free)
        while remaining:
            recipient = min(unfinished, key=lambda v: (len(owned[v.index]), v.index))
            cluster = self._grant_choice(remaining, owned[recipient.index])
            remaining.remove(cluster)
            owned[recipient.index].append(cluster)
            actions.append(("grant", recipient.index, cluster))
        for view in views:
            if view.finished:
                actions.extend(("reclaim", view.index, c) for c in view.owned)
        richest = max(unfinished, key=lambda v: (len(owned[v.index]), -v.index))
        fewest = min(len(owned[v.index]) for v in unfinished)
        if len(owned[richest.index]) - fewest > 1 and len(richest.owned) > 1:
            actions.append(
                ("reclaim", richest.index, self._reclaim_choice(richest.owned))
            )
        return actions

    def _grant_choice(self, free: Sequence[int], owned: Sequence[int]) -> int:
        """The free cluster a grant hands out: the lowest id."""
        return min(free)

    def _reclaim_choice(self, owned: Tuple[int, ...]) -> int:
        """The cluster a rebalancing reclaim takes: the highest id."""
        return owned[-1]


class CommAwareArbiter(RoundRobinArbiter):
    """Round-robin's trigger policy with communication-aware choices.

    Cluster *selection* minimizes intra-thread hop distance on the actual
    fabric, in the spirit of contiguity-preserving supercomputer
    allocation: the initial partition grows each thread's set greedily
    from a seed by nearest-free cluster; a grant gives the recipient the
    free cluster closest to its current set; a rebalancing reclaim peels
    the donor's most *remote* cluster, preserving the compact core.  On
    the ring-of-rings this keeps a thread's clusters inside as few local
    rings as it can, so fewer of its own routes cross a hub.
    """

    def _distance(self, cluster: int, owned: Sequence[int]) -> int:
        """Total hops between ``cluster`` and a thread's owned set."""
        hops = self.topology.hops
        return sum(hops(cluster, other) for other in owned)

    def _grant_choice(self, free: Sequence[int], owned: Sequence[int]) -> int:
        """The free cluster nearest ``owned`` (ties: lowest id)."""
        return min(free, key=lambda cluster: (self._distance(cluster, owned), cluster))

    def _reclaim_choice(self, owned: Tuple[int, ...]) -> int:
        """The cluster farthest from the rest of ``owned`` (ties: highest id)."""
        return max(
            owned,
            key=lambda cluster: (
                self._distance(cluster, [c for c in owned if c != cluster]),
                cluster,
            ),
        )

    def initial_allocation(self) -> Tuple[Tuple[int, ...], ...]:
        share, extra = divmod(self.num_clusters, self.num_threads)
        unallocated = list(range(self.num_clusters))
        blocks: List[Tuple[int, ...]] = []
        for thread in range(self.num_threads):
            size = share + (1 if thread < extra else 0)
            grown = [unallocated.pop(0)]  # seed: lowest unallocated id
            while len(grown) < size:
                nxt = self._grant_choice(unallocated, grown)
                unallocated.remove(nxt)
                grown.append(nxt)
            blocks.append(tuple(sorted(grown)))
        return tuple(blocks)


#: arbiter name -> class; ``sorted(ARBITERS)`` is the exhibit row order
ARBITERS: Dict[str, Type[StaticArbiter]] = {
    "static": StaticArbiter,
    "round-robin": RoundRobinArbiter,
    "comm-aware": CommAwareArbiter,
}
