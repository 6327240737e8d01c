"""Set-associative cache.

Bank-port booking is a :class:`~repro.timing.SlotReserver`, which
``tests/test_timing.py`` covers.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import CacheConfig
from repro.memory.cache import SetAssocCache


def _cache(size=1024, assoc=2, line=32):
    return SetAssocCache(CacheConfig(size=size, assoc=assoc, line_size=line))


class TestCache:
    def test_cold_miss_then_hit(self):
        c = _cache()
        assert not c.access(0x100, False).hit
        assert c.access(0x100, False).hit

    def test_same_line_hits(self):
        c = _cache(line=32)
        c.access(0x100, False)
        assert c.access(0x11F, False).hit
        assert not c.access(0x120, False).hit

    def test_lru_eviction(self):
        c = _cache(size=128, assoc=2, line=32)  # 2 sets
        # three lines mapping to set 0: line numbers 0, 2, 4 (addr 0, 64, 128)
        c.access(0, False)
        c.access(64, False)
        c.access(0, False)  # 0 is MRU
        c.access(128, False)  # evicts 64
        assert c.access(0, False).hit
        assert not c.access(64, False).hit

    def test_dirty_writeback_on_eviction(self):
        c = _cache(size=128, assoc=1, line=32)  # 4 sets, direct mapped
        c.access(0, True)  # dirty
        result = c.access(128, False)  # same set, evicts dirty line
        assert result.writeback

    def test_clean_eviction_no_writeback(self):
        c = _cache(size=128, assoc=1, line=32)
        c.access(0, False)
        assert not c.access(128, False).writeback

    def test_flush_counts_dirty_lines(self):
        c = _cache()
        c.access(0x000, True)
        c.access(0x100, True)
        c.access(0x200, False)
        assert c.flush() == 2
        assert not c.access(0x000, False).hit  # cold after flush

    def test_write_marks_dirty(self):
        c = _cache(size=64, assoc=1, line=32)  # 2 sets
        c.access(0, False)
        c.access(0, True)
        assert c.flush() == 1

    def test_zero_sets_rejected(self):
        with pytest.raises(ValueError):
            SetAssocCache(CacheConfig(size=16, assoc=2, line_size=32))


class _ListOfSetsCache:
    """Reference model: the LRU cache with every set allocated up front
    as a list of ``[tag, dirty]``, most-recently-used last."""

    def __init__(self, num_sets, assoc, line_size):
        self.sets = [[] for _ in range(num_sets)]
        self.assoc = assoc
        self.line_size = line_size

    def access(self, addr, is_write):
        """``(hit, writeback)`` of one access."""
        tag = addr // self.line_size
        cache_set = self.sets[tag % len(self.sets)]
        for i, entry in enumerate(cache_set):
            if entry[0] == tag:
                cache_set.append(cache_set.pop(i))
                if is_write:
                    cache_set[-1][1] = 1
                return True, False
        writeback = False
        if len(cache_set) >= self.assoc:
            writeback = bool(cache_set.pop(0)[1])
        cache_set.append([tag, 1 if is_write else 0])
        return False, writeback

    def flush(self):
        dirty = 0
        for cache_set in self.sets:
            dirty += sum(entry[1] for entry in cache_set)
            cache_set.clear()
        return dirty


class TestAgainstListOfSetsModel:
    @given(
        assoc=st.integers(min_value=1, max_value=4),
        num_sets=st.integers(min_value=1, max_value=8),
        line=st.sampled_from([8, 32]),
        data=st.data(),
    )
    @settings(max_examples=200, deadline=None)
    def test_every_outcome_matches(self, assoc, num_sets, line, data):
        # one line more per set than it holds, so accesses hit, miss and
        # evict in every set; each run of accesses ends in a flush
        lines = num_sets * (assoc + 1)
        access = st.tuples(
            st.integers(min_value=0, max_value=lines * line - 1), st.booleans()
        )
        runs = data.draw(
            st.lists(st.lists(access, max_size=40), min_size=1, max_size=4)
        )
        cache = _cache(size=num_sets * assoc * line, assoc=assoc, line=line)
        model = _ListOfSetsCache(num_sets, assoc, line)
        for run in runs:
            for addr, is_write in run:
                result = cache.access(addr, is_write)
                assert (result.hit, result.writeback) == model.access(addr, is_write)
            assert cache.flush() == model.flush()
