"""Conformance suite: every arbiter x every fabric, same properties.

Each of the three arbiters, on every fabric, must satisfy:

* **conservation** — after every rebalance, no cluster is owned by two
  threads and none is both owned and free (the ledger raises on double
  grants and bad reclaims, so *replaying* arbitrary action sequences is
  most of the test);
* **sane actions** — grants only to unfinished threads, only of clusters
  that were actually free;
* **determinism** — ``rebalance`` is a pure function of its inputs, a
  full run is a pure function of its spec, ``--jobs 4`` sweeps are
  bit-identical to serial ones, and an attached tracer changes nothing.

The property tests are hypothesis-driven; CI's slow lane runs them with
a larger example budget via ``REPRO_HYPOTHESIS_PROFILE=thorough``.
"""

import dataclasses
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import InterconnectConfig
from repro.errors import SimulationError
from repro.interconnect import build_topology
from repro.multiprog import (
    ARBITERS,
    ClusterLedger,
    FABRICS,
    MultiProgSpec,
    ThreadView,
    run_multiprog,
)
from repro.multiprog.arbiters import RoundRobinArbiter
from repro.observability import MemoryTracer

settings.register_profile("fast", max_examples=15, deadline=None)
settings.register_profile("thorough", max_examples=150, deadline=None)
settings.load_profile(os.environ.get("REPRO_HYPOTHESIS_PROFILE", "fast"))

CLUSTERS = 16
DRAIN = 25
EPOCH = 100

#: the full conformance matrix; parametrize ids read "arbiter-fabric"
MATRIX = [
    pytest.param(arbiter, fabric, id=f"{arbiter}-{fabric}")
    for arbiter in sorted(ARBITERS)
    for fabric in FABRICS
]


def make_topology(fabric):
    return build_topology(InterconnectConfig(topology=fabric), CLUSTERS)


def replay(arbiter_name, fabric, num_threads, rounds, data):
    """Apply ``rounds`` epochs of synthetic progress; return the ledger.

    ``data`` drives which threads finish; every ledger mutation goes
    through grant/reclaim, which raise on a double grant or a bad reclaim
    — so simply finishing is most of the assertion.
    """
    arbiter = ARBITERS[arbiter_name](CLUSTERS, num_threads, make_topology(fabric))
    ledger = ClusterLedger(CLUSTERS)
    blocks = arbiter.initial_allocation()
    assert len(blocks) == num_threads
    assert sorted(c for block in blocks for c in block) == list(range(CLUSTERS))
    for thread, block in enumerate(blocks):
        assert block, f"thread {thread} allocated no clusters"
        for cluster in block:
            ledger.grant(cluster, thread, 0)

    finished = [False] * num_threads
    cycle = 0
    for _ in range(rounds):
        cycle += EPOCH
        for thread in range(num_threads):
            if not finished[thread] and data.draw(st.booleans(), label="finish"):
                finished[thread] = True
        views = [
            ThreadView(thread, finished[thread], ledger.owned_by(thread))
            for thread in range(num_threads)
        ]
        free_before = ledger.free_clusters(cycle)
        actions = []
        if isinstance(arbiter, RoundRobinArbiter):  # static never rebalances
            actions = arbiter.rebalance(views, free_before)
            # determinism: same inputs, same decisions
            assert actions == arbiter.rebalance(views, free_before)
        for kind, thread, cluster in actions:
            if kind == "grant":
                assert not finished[thread], "grant to a finished thread"
                assert cluster in free_before, "grant of a non-free cluster"
                ledger.grant(cluster, thread, cycle)
            elif kind == "reclaim":
                ledger.reclaim(cluster, thread, cycle, DRAIN)
            else:  # pragma: no cover - would be an arbiter bug
                raise AssertionError(f"unknown action kind {kind!r}")
        # conservation: the per-thread owned sets partition the owned
        # pool, and no owned cluster is also free
        all_owned = [c for t in range(num_threads) for c in ledger.owned_by(t)]
        assert len(all_owned) == len(set(all_owned)), "cluster owned twice"
        assert not set(all_owned) & set(ledger.free_clusters(cycle)), (
            "cluster both owned and free"
        )
    return ledger


@pytest.mark.parametrize("arbiter_name,fabric", MATRIX)
@given(data=st.data())
def test_arbitrary_progress_conserves_clusters(arbiter_name, fabric, data):
    num_threads = data.draw(st.integers(min_value=2, max_value=4), label="n")
    rounds = data.draw(st.integers(min_value=1, max_value=8), label="rounds")
    replay(arbiter_name, fabric, num_threads, rounds, data)


@pytest.mark.parametrize("arbiter_name,fabric", MATRIX)
def test_double_grant_is_rejected(arbiter_name, fabric):
    """The ledger (not arbiter goodwill) enforces exclusivity."""
    arbiter = ARBITERS[arbiter_name](CLUSTERS, 2, make_topology(fabric))
    ledger = ClusterLedger(CLUSTERS)
    for thread, block in enumerate(arbiter.initial_allocation()):
        for cluster in block:
            ledger.grant(cluster, thread, 0)
    with pytest.raises(SimulationError, match="double grant"):
        ledger.grant(0, 1, 10)
    ledger.reclaim(0, 0, 10, DRAIN)
    with pytest.raises(SimulationError, match="draining"):
        ledger.grant(0, 1, 10 + DRAIN - 1)
    ledger.grant(0, 1, 10 + DRAIN)  # after the drain it is grantable


class TestEndToEnd:
    """Full co-scheduled runs across the whole matrix."""

    @staticmethod
    def spec(arbiter, fabric, **overrides):
        base = dict(
            workloads=("gzip", "swim"),
            trace_length=1_500,
            seed=11,
            topology=fabric,
            arbiter=arbiter,
            epoch_cycles=250,
            drain_cycles=20,
        )
        base.update(overrides)
        return MultiProgSpec(**base)

    @pytest.mark.parametrize("arbiter_name,fabric", MATRIX)
    def test_run_completes_and_accounts(self, arbiter_name, fabric):
        result = run_multiprog(self.spec(arbiter_name, fabric))
        assert result.cycles > 0
        for thread in result.threads:
            assert thread.committed > 0
            assert thread.cycles <= result.cycles
        # the owned-cluster integral can never exceed the physical pool
        total_owned = sum(t.stats.owned_cluster_cycles for t in result.threads)
        assert total_owned <= CLUSTERS * result.cycles
        assert result.stats.arb_grants == result.arb_grants
        assert result.stats.arb_reclaims == result.arb_reclaims
        if arbiter_name == "static":
            assert result.arb_grants == 0 and result.arb_reclaims == 0

    @pytest.mark.parametrize("arbiter_name,fabric", MATRIX)
    def test_traced_run_is_bit_identical(self, arbiter_name, fabric):
        spec = self.spec(arbiter_name, fabric)
        baseline = run_multiprog(spec)
        traced = run_multiprog(spec, tracer=MemoryTracer(sample_period=100))
        assert dataclasses.asdict(traced.stats) == dataclasses.asdict(
            baseline.stats
        )
        assert traced.cycles == baseline.cycles
        assert [t.ipc for t in traced.threads] == [
            t.ipc for t in baseline.threads
        ]

    def test_rerun_is_deterministic(self):
        spec = self.spec("round-robin", "torus")
        first = run_multiprog(spec)
        second = run_multiprog(spec)
        assert dataclasses.asdict(first.stats) == dataclasses.asdict(
            second.stats
        )
        assert first.cycles == second.cycles


class TestSweepBitIdentity:
    """Serial vs ``jobs=4`` sweeps must agree bit-for-bit."""

    def test_parallel_sweep_matches_serial(self):
        from repro.experiments.sweep import (
            SweepConfig,
            SweepRunner,
            multiprog_run_spec,
            require_ok,
        )

        specs = [
            multiprog_run_spec(TestEndToEnd.spec(arbiter, fabric))
            for arbiter in sorted(ARBITERS)
            for fabric in FABRICS
        ]
        serial = require_ok(SweepRunner(SweepConfig(jobs=1, use_cache=False)).run(specs))
        parallel = require_ok(SweepRunner(SweepConfig(jobs=4, use_cache=False)).run(specs))
        for one, four in zip(serial, parallel):
            assert one.spec.cache_key() == four.spec.cache_key()
            assert one.result.ipc == four.result.ipc
            assert one.result.committed == four.result.committed
            assert one.result.cycles == four.result.cycles
            assert dataclasses.asdict(one.result.stats) == dataclasses.asdict(
                four.result.stats
            )
