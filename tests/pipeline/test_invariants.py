"""Pipeline conservation invariants (property-based)."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import decentralized_config, default_config
from repro.core import StaticController
from repro.pipeline.processor import ClusteredProcessor
from repro.workloads.blocks import PhaseParams
from repro.workloads.generator import Profile, generate_trace


def _trace(body, cross, frac_load, frac_store, pattern, seed, length=1200):
    phase = PhaseParams(
        name="h",
        body_size=body,
        cross_iter_dep=cross,
        frac_load=frac_load,
        frac_store=frac_store,
        mem_pattern=pattern,
        inner_branches=1,
        working_set=8 * 1024,
    )
    return generate_trace(
        Profile(name="h", phases=(phase,), schedule="steady"), length, seed=seed
    )


workload = st.tuples(
    st.integers(min_value=4, max_value=36),          # body
    st.floats(min_value=0.0, max_value=0.8),         # cross
    st.floats(min_value=0.0, max_value=0.35),        # frac_load
    st.floats(min_value=0.0, max_value=0.15),        # frac_store
    st.sampled_from(["strided", "random", "hotcold", "chase"]),
    st.integers(min_value=0, max_value=9999),        # seed
)


class TestConservation:
    @given(workload, st.sampled_from([1, 3, 7, 16]))
    @settings(max_examples=10, deadline=None)
    def test_everything_drains(self, wl, clusters):
        trace = _trace(*wl)
        proc = ClusteredProcessor(trace, default_config(16), StaticController(clusters))
        proc.run()
        s = proc.stats
        assert s.committed == s.dispatched == s.issued == len(trace)
        assert proc.rob.empty
        assert all(c.reset_for_drain_check() for c in proc.clusters)
        assert not proc._records  # no leaked in-flight state

    @given(workload)
    @settings(max_examples=6, deadline=None)
    def test_decentralized_drains(self, wl):
        trace = _trace(*wl)
        proc = ClusteredProcessor(trace, decentralized_config(16))
        proc.run()
        assert proc.stats.committed == len(trace)
        lsq = proc.memory.lsq
        lsq.tick(proc.cycle + 10_000)  # release any scheduled dummies
        assert all(lsq.occupancy(k) == 0 for k in range(16))

    @given(workload)
    @settings(max_examples=6, deadline=None)
    def test_counter_sanity(self, wl):
        trace = _trace(*wl)
        proc = ClusteredProcessor(trace, default_config(8))
        proc.run()
        s = proc.stats
        assert s.mispredicts <= s.branches
        assert s.loads + s.stores == s.memrefs
        assert s.distant_commits <= s.committed
        assert 0 <= s.cluster_cycle_product <= 8 * s.cycles

    @given(workload)
    @settings(max_examples=5, deadline=None)
    def test_mid_run_reconfiguration_safe(self, wl):
        """Reconfiguring at arbitrary points never wedges or loses work."""
        trace = _trace(*wl)
        proc = ClusteredProcessor(trace, default_config(16))
        sizes = [2, 16, 4, 8, 1]
        i = 0
        while not proc.finished:
            proc.advance(until_cycle=proc.cycle + 1)
            if proc.cycle % 97 == 0:
                proc.set_active_clusters(sizes[i % len(sizes)])
                i += 1
        assert proc.stats.committed == len(trace)
