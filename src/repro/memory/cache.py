"""Set-associative cache tag store with LRU replacement and dirty bits.

Functional only — timing (bank ports, L2/memory latency) is composed on top
by :mod:`repro.memory.hierarchy`, which books each bank's one port per
cycle on a :class:`~repro.timing.SlotReserver`.
"""

from __future__ import annotations

from typing import Dict, List

from ..config import CacheConfig


class AccessResult:
    """Outcome of one cache access."""

    __slots__ = ("hit", "writeback")

    def __init__(self, hit: bool, writeback: bool) -> None:
        self.hit = hit
        self.writeback = writeback


#: preallocated access outcomes — ``access`` sits on the per-load hot path
#: and the three possible results are immutable to every caller
_HIT = AccessResult(hit=True, writeback=False)
_MISS = AccessResult(hit=False, writeback=False)
_MISS_WB = AccessResult(hit=False, writeback=True)


class SetAssocCache:
    """LRU set-associative cache with write-back, write-allocate policy."""

    def __init__(self, config: CacheConfig, name: str = "cache") -> None:
        self.config = config
        self.name = name
        self.num_sets = config.num_sets
        if self.num_sets < 1:
            raise ValueError(f"{name}: config yields zero sets")
        self._line_size = config.line_size
        self._assoc = config.assoc
        # only the touched sets, by index (each a list of [tag, dirty], MRU
        # last), so building, flushing and collecting the cache cost what a
        # run touched rather than what the geometry holds
        self._sets: Dict[int, List[List[int]]] = {}

    def access(self, addr: int, is_write: bool) -> AccessResult:
        """Probe and update the cache; allocate on miss."""
        tag = addr // self._line_size
        index = tag % self.num_sets
        cache_set = self._sets.get(index)
        if cache_set is None:
            self._sets[index] = [[tag, 1 if is_write else 0]]
            return _MISS
        for i, entry in enumerate(cache_set):
            if entry[0] == tag:
                cache_set.append(cache_set.pop(i))
                if is_write:
                    cache_set[-1][1] = 1
                return _HIT
        # miss: allocate, possibly evicting a dirty line
        writeback = False
        if len(cache_set) >= self._assoc:
            victim = cache_set.pop(0)
            writeback = bool(victim[1])
        cache_set.append([tag, 1 if is_write else 0])
        return _MISS_WB if writeback else _MISS

    def flush(self) -> int:
        """Invalidate everything; return the number of dirty lines that must
        be written back (Section 5 reconfiguration cost)."""
        dirty = 0
        for cache_set in self._sets.values():
            for entry in cache_set:
                dirty += entry[1]
        self._sets.clear()
        return dirty
