"""Conformance: every controller x topology survives a mid-run kill.

The whole matrix runs with ``REPRO_CHECK_INVARIANTS=1`` (armed for the
full suite by ``tests/conftest.py``), so a steering decision targeting a
dead cluster or a rate-invariant violation in a disabled cluster fails
here, not just a weaker IPC.
"""

import dataclasses

import pytest

from repro import simulate
from repro.resilience import FaultEvent, FaultSchedule

TOPOLOGIES = ("ring", "grid", "decentralized", "torus", "ring-of-rings")
POLICIES = ("none", "static-4", "explore", "no-explore", "finegrain")

#: a harsh mid-run sequence: kill, then wound the survivors
SCHEDULE = FaultSchedule((
    FaultEvent(cycle=600, kind="cluster_kill", cluster=5),
    FaultEvent(cycle=900, kind="fu_disable", cluster=2, unit="int_alu"),
    FaultEvent(cycle=1_200, kind="link_degrade", src=1, dst=2),
))


@pytest.mark.parametrize("topology", TOPOLOGIES)
@pytest.mark.parametrize("policy", POLICIES)
def test_survives_mid_run_kill(gzip_trace, topology, policy):
    result = simulate(
        gzip_trace,
        topology=topology,
        reconfig_policy=policy,
        warmup=500,
        faults=SCHEDULE,
    )
    assert result.stats.committed == len(gzip_trace.instructions)
    assert result.ipc > 0
    assert result.stats.faults_injected == len(SCHEDULE)
    assert result.stats.cluster_kills == 1
    assert result.stats.degraded_cycles > 0


class TestFaultedSweepBitIdentity:
    """Serial vs ``--jobs 4`` faulted sweeps must agree bit-for-bit."""

    def test_parallel_sweep_matches_serial(self):
        from repro.config import default_config, grid_config, torus_config
        from repro.experiments.sweep import (
            ControllerSpec,
            RunSpec,
            SweepConfig,
            SweepRunner,
            require_ok,
        )

        specs = [
            RunSpec(
                profile="gzip",
                trace_length=2_000,
                seed=11,
                config=make_config(16),
                controller=controller,
                warmup=300,
                faults=SCHEDULE,
                label=f"faulted/{make_config.__name__}",
            )
            for make_config in (default_config, grid_config, torus_config)
            for controller in (ControllerSpec.explore(),
                               ControllerSpec.static(16))
        ]
        serial = require_ok(SweepRunner(SweepConfig(jobs=1, use_cache=False)).run(specs))
        parallel = require_ok(SweepRunner(SweepConfig(jobs=4, use_cache=False)).run(specs))
        for one, four in zip(serial, parallel):
            assert one.spec.cache_key() == four.spec.cache_key()
            assert dataclasses.asdict(one.result.stats) == dataclasses.asdict(
                four.result.stats
            )
            assert one.result.stats.faults_injected == len(SCHEDULE)

    def test_faulted_run_has_distinct_cache_key(self):
        from repro.experiments.sweep import ControllerSpec, RunSpec

        base = dict(
            profile="gzip",
            trace_length=2_000,
            seed=11,
            controller=ControllerSpec.static(16),
        )
        healthy = RunSpec(**base)
        faulted = RunSpec(faults=SCHEDULE, **base)
        assert healthy.cache_key() != faulted.cache_key()
