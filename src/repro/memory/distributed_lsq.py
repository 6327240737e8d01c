"""Distributed load-store queue for the decentralized cache (Section 5).

Each cluster owns a 15-entry LSQ slice guarding its cache bank.  A store
whose effective address is unknown at rename occupies a *dummy slot* in
every active cluster's slice; loads behind a dummy slot may not proceed.
When the store's address is computed it is broadcast, and every dummy slot
except the one in the store's actual bank cluster is freed on broadcast
arrival (we model the broadcast on the register/cache data network, as the
paper does).
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Sequence, Set, Tuple

from ..errors import SimulationError
from .lsq import MemAccess


class DistributedLSQ:
    """Per-cluster LSQ slices with the dummy-slot store protocol."""

    def __init__(self, num_clusters: int, capacity_per_cluster: int) -> None:
        if num_clusters < 1 or capacity_per_cluster < 1:
            raise ValueError("num_clusters and capacity must be positive")
        self.num_clusters = num_clusters
        self.capacity = capacity_per_cluster
        self._occupancy = [0] * num_clusters
        # (release_cycle, cluster) heap for dummy slots freed by broadcasts
        self._releases: List[Tuple[int, int]] = []
        self._entries: Dict[int, MemAccess] = {}
        #: store entries only, so load scheduling never scans the loads
        self._stores: Dict[int, MemAccess] = {}
        self._unresolved_stores: Set[int] = set()
        self._pending_loads: Dict[int, MemAccess] = {}
        #: clusters each in-flight entry currently occupies
        self._held: Dict[int, List[int]] = {}

    # ------------------------------------------------------------------
    # capacity

    def occupancy(self, cluster: int) -> int:
        return self._occupancy[cluster]

    def can_allocate_load(self, cluster: int) -> bool:
        return self._occupancy[cluster] < self.capacity

    def can_allocate_store(self, banks: Sequence[int]) -> bool:
        """``banks`` is the dispatch-eligible bank cluster ids."""
        occupancy = self._occupancy
        return all(occupancy[k] < self.capacity for k in banks)

    def tick(self, cycle: int) -> None:
        """Free dummy slots whose broadcast has arrived by ``cycle``."""
        while self._releases and self._releases[0][0] <= cycle:
            _, cluster = heapq.heappop(self._releases)
            self._occupancy[cluster] -= 1

    # ------------------------------------------------------------------
    # allocation

    def allocate_load(self, access: MemAccess) -> None:
        if not self.can_allocate_load(access.cluster):
            raise SimulationError("distributed LSQ load allocate on full slice")
        self._entries[access.index] = access
        self._occupancy[access.cluster] += 1
        self._held[access.index] = [access.cluster]

    def allocate_store(self, access: MemAccess, banks: Sequence[int]) -> None:
        """Occupy a dummy slot in every bank's slice."""
        held = list(banks)
        if not self.can_allocate_store(held):
            raise SimulationError("distributed LSQ store allocate on full slice")
        self._entries[access.index] = access
        self._stores[access.index] = access
        self._unresolved_stores.add(access.index)
        for k in held:
            self._occupancy[k] += 1
        self._held[access.index] = held

    # ------------------------------------------------------------------
    # address resolution

    def load_address_ready(self, index: int, arrival: int) -> None:
        access = self._entries[index]
        access.addr_arrival = arrival
        self._pending_loads[index] = access

    def store_address_ready(
        self, index: int, bank_cluster: int, arrivals: Dict[int, int]
    ) -> None:
        """The store's address was broadcast; ``arrivals`` maps cluster ->
        broadcast arrival cycle.  All dummy slots except the bank cluster's
        are scheduled for release at their arrival cycles."""
        access = self._entries[index]
        access.arrivals = arrivals
        access.addr_arrival = max(arrivals.values()) if arrivals else 0
        self._unresolved_stores.discard(index)
        kept: List[int] = []
        for cluster in self._held[index]:
            if cluster == bank_cluster:
                kept.append(cluster)
            else:
                heapq.heappush(
                    self._releases, (arrivals.get(cluster, 0), cluster)
                )
        if not kept:
            # bank cluster was not among the active set at allocate time
            # (cannot normally happen); keep the entry accounted somewhere
            kept = [bank_cluster]
            self._occupancy[bank_cluster] += 1
        self._held[index] = kept

    def schedulable_loads(self) -> List[MemAccess]:
        if not self._pending_loads:
            return []
        barrier = min(self._unresolved_stores) if self._unresolved_stores else None
        ready: List[MemAccess] = []
        for index in sorted(self._pending_loads):
            if barrier is not None and index > barrier:
                break
            ready.append(self._pending_loads.pop(index))
        return ready

    def probe_constraints(self, load: MemAccess, bank_cluster: int) -> Tuple[int, bool]:
        """(latest earlier-store broadcast arrival at ``bank_cluster``,
        forwarding possible from an earlier in-flight store to same word)."""
        latest = 0
        forward = False
        best_store = -1
        for index, entry in self._stores.items():
            if index >= load.index:
                continue
            if entry.arrivals is None:
                raise SimulationError("probe_constraints on a blocked load")
            arrival = entry.arrivals.get(bank_cluster, entry.addr_arrival or 0)
            if arrival > latest:
                latest = arrival
            if entry.word == load.word and index > best_store:
                best_store = index
                forward = True
        return latest, forward

    def release(self, index: int) -> MemAccess:
        access = self._entries.pop(index)
        self._stores.pop(index, None)
        self._unresolved_stores.discard(index)
        self._pending_loads.pop(index, None)
        for cluster in self._held.pop(index):
            self._occupancy[cluster] -= 1
        return access
