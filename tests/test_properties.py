"""Property-based tests on the core data structures and the simulator."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import default_config
from repro.frontend.btb import BranchTargetBuffer
from repro.frontend.combining import CombiningPredictor
from repro.interconnect.grid import GridTopology
from repro.interconnect.ring import RingTopology
from repro.memory.cache import SetAssocCache
from repro.config import CacheConfig
from repro.pipeline.processor import ClusteredProcessor
from repro.workloads.blocks import PhaseParams
from repro.workloads.generator import Profile, generate_trace


class TestRingProperties:
    @given(st.integers(min_value=2, max_value=32))
    @settings(max_examples=20, deadline=None)
    def test_route_endpoints_consistent(self, n):
        ring = RingTopology(n)
        for s in range(n):
            for d in range(n):
                assert len(ring.route(s, d)) == ring.hops(s, d) <= n // 2

    @given(st.integers(min_value=2, max_value=32))
    @settings(max_examples=20, deadline=None)
    def test_triangle_inequality(self, n):
        ring = RingTopology(n)
        for a in range(n):
            for b in range(n):
                for c in (0, n // 2):
                    assert ring.hops(a, b) <= ring.hops(a, c) + ring.hops(c, b)


class TestGridProperties:
    @given(st.sampled_from([4, 8, 9, 12, 16, 25]))
    @settings(max_examples=10, deadline=None)
    def test_route_matches_manhattan(self, n):
        grid = GridTopology(n)
        for s in range(n):
            for d in range(n):
                assert len(grid.route(s, d)) == grid.hops(s, d)


class TestCacheProperties:
    @given(
        st.lists(
            st.tuples(st.integers(min_value=0, max_value=4095), st.booleans()),
            min_size=1,
            max_size=200,
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_flush_writebacks_bounded_by_writes(self, accesses):
        cache = SetAssocCache(CacheConfig(size=512, assoc=2, line_size=32))
        writes = 0
        evict_writebacks = 0
        for addr, is_write in accesses:
            writes += is_write
            evict_writebacks += cache.access(addr, is_write).writeback
        assert cache.flush() + evict_writebacks <= writes

    @given(st.lists(st.integers(min_value=0, max_value=1023), min_size=1, max_size=100))
    @settings(max_examples=40, deadline=None)
    def test_second_access_always_hits(self, addrs):
        cache = SetAssocCache(CacheConfig(size=64 * 1024, assoc=8, line_size=32))
        for addr in addrs:
            cache.access(addr, False)
            assert cache.access(addr, False).hit


class TestPredictorProperties:
    @given(st.lists(st.tuples(st.integers(0, 2 ** 20), st.booleans()), max_size=300))
    @settings(max_examples=30, deadline=None)
    def test_predictor_never_crashes_and_returns_bool(self, stream):
        pred = CombiningPredictor(64, 64, 6, 64, 64)
        for pc, taken in stream:
            assert isinstance(pred.predict(pc), bool)
            pred.update(pc, taken)

    @given(st.lists(st.tuples(st.integers(0, 2 ** 14).map(lambda x: x * 4),
                              st.integers(0, 2 ** 16)), max_size=200))
    @settings(max_examples=30, deadline=None)
    def test_btb_returns_last_taken_target(self, updates):
        # PCs are 4-byte aligned in this ISA (the BTB tags pc >> 2)
        btb = BranchTargetBuffer(sets=1024, assoc=4)
        last = {}
        for pc, target in updates:
            btb.update(pc, target)
            last[pc] = target
        misses = 0
        for pc, target in last.items():
            got = btb.lookup(pc)
            if got is not None:
                assert got == last[pc]
            else:
                misses += 1
        assert misses <= len(last)  # misses only from capacity eviction


class TestSimulatorProperties:
    @given(
        body=st.integers(min_value=4, max_value=40),
        cross=st.floats(min_value=0.0, max_value=0.9),
        frac_load=st.floats(min_value=0.0, max_value=0.4),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=8, deadline=None)
    def test_random_workloads_complete(self, body, cross, frac_load, seed):
        """Any well-formed workload must run to completion on any config."""
        phase = PhaseParams(
            name="h",
            body_size=body,
            cross_iter_dep=cross,
            frac_load=frac_load,
            frac_store=min(0.2, frac_load / 2),
            inner_branches=1,
        )
        trace = generate_trace(
            Profile(name="h", phases=(phase,), schedule="steady"), 1_500, seed=seed
        )
        stats = ClusteredProcessor(trace, default_config(4)).run()
        assert stats.committed == len(trace)
        assert 0 < stats.ipc < 16
