"""Centralized load-store queue (Section 2.1).

All loads and stores allocate an entry at dispatch.  A load may probe the
cache only when every earlier store still in the queue has a known address
("loads are issued when they are known to not conflict with earlier
stores"); if an earlier in-flight store to the same word exists, the load is
satisfied by forwarding instead of a cache access.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from ..errors import SimulationError


class MemAccess:
    """One in-flight memory instruction's LSQ state."""

    __slots__ = (
        "index",
        "cluster",
        "addr",
        "word",
        "is_store",
        "addr_arrival",
        "arrivals",
    )

    def __init__(self, index: int, cluster: int, addr: int, is_store: bool) -> None:
        self.index = index
        self.cluster = cluster
        self.addr = addr
        #: word address, precomputed: disambiguation compares it per probe
        #: against every earlier in-flight store
        self.word = addr >> 2
        self.is_store = is_store
        #: cycle the address becomes known at the (centralized) LSQ
        self.addr_arrival: Optional[int] = None
        #: decentralized: per-cluster broadcast arrival cycles
        self.arrivals: Optional[Dict[int, int]] = None


class CentralizedLSQ:
    """The single LSQ co-located with the home cluster (capacity 15N).

    Address-precise disambiguation (SimpleScalar-like): a load waits only
    for earlier in-flight stores to the *same word*; once those have
    computed their addresses the load probes (or forwards).
    """

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self._entries: Dict[int, MemAccess] = {}
        #: store entries only, so load scheduling never scans the loads
        self._stores: Dict[int, MemAccess] = {}
        self._unresolved_stores: Set[int] = set()
        self._pending_loads: Dict[int, MemAccess] = {}

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def full(self) -> bool:
        return len(self._entries) >= self.capacity

    def allocate(self, access: MemAccess) -> None:
        if self.full:
            raise SimulationError("LSQ allocate on a full queue")
        self._entries[access.index] = access
        if access.is_store:
            self._stores[access.index] = access
            self._unresolved_stores.add(access.index)

    def load_address_ready(self, index: int, arrival: int) -> None:
        access = self._entries[index]
        access.addr_arrival = arrival
        self._pending_loads[index] = access

    def store_address_ready(self, index: int, arrival: int) -> None:
        access = self._entries[index]
        access.addr_arrival = arrival
        self._unresolved_stores.discard(index)

    def _blocked(self, load: MemAccess) -> bool:
        if not self._unresolved_stores:
            return False
        word = load.word
        entries = self._entries
        # Order-independent any-match over int indices: the result cannot
        # depend on hash iteration order, and sorting here would cost the
        # hot path for nothing.
        for index in self._unresolved_stores:
            if index < load.index and entries[index].word == word:
                return True
        return False

    def schedulable_loads(self) -> List[MemAccess]:
        """Pop and return loads no longer blocked by unresolved stores."""
        pending = self._pending_loads
        if not pending:
            return []
        if not self._unresolved_stores:
            # no store can block anything: every pending load drains
            ready = [pending[index] for index in sorted(pending)]
            pending.clear()
            return ready
        ready = []
        for index in sorted(pending):
            if not self._blocked(pending[index]):
                ready.append(pending.pop(index))
        return ready

    def probe_constraints(self, load: MemAccess) -> Tuple[int, bool]:
        """For a schedulable load: (latest earlier same-word store address
        arrival, whether an earlier in-flight store to the same word can
        forward)."""
        latest = 0
        forward = False
        load_index = load.index
        load_word = load.word
        for index, entry in self._stores.items():
            if index >= load_index or entry.word != load_word:
                continue
            if entry.addr_arrival is None:
                raise SimulationError("probe_constraints on a blocked load")
            if entry.addr_arrival > latest:
                latest = entry.addr_arrival
            forward = True
        return latest, forward

    def release(self, index: int) -> MemAccess:
        """Remove an entry at commit."""
        access = self._entries.pop(index)
        self._stores.pop(index, None)
        self._unresolved_stores.discard(index)
        self._pending_loads.pop(index, None)
        return access
