"""The fused cycle loop must be bit-identical to the naive reference loop.

The production loop (:class:`~repro.pipeline.fused.FusedCore`) inlines the
stages, selects event-driven (skipping clusters until their `wake_cycle`)
and jumps over idle cycles; the stage-by-stage loop with a full select
scan survives as ``ClusteredProcessor(..., naive_issue=True)`` precisely so
this property can be checked forever: for ANY workload shape, machine
topology, cluster count and controller, the two loops must produce
byte-for-byte identical statistics.  A single missed wakeup or an
over-long idle skip shows up here as a cycle-count divergence.

The exhaustive 200-example sweep is `slow` (it runs in the CI slow job);
a small smoke sample rides in the fast tier.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import decentralized_config, default_config, grid_config
from repro.core import DistantILPController, NoExploreConfig, StaticController
from repro.pipeline.processor import ClusteredProcessor
from repro.workloads.blocks import PhaseParams
from repro.workloads.generator import Profile, generate_trace

_CONFIGS = {
    "ring": default_config,
    "grid": grid_config,
    "decentralized": decentralized_config,
}


def _build_controller(kind):
    if kind == "none":
        return None
    if kind.startswith("static-"):
        return StaticController(int(kind.split("-")[1]))
    return DistantILPController(NoExploreConfig.scaled(interval_length=400))


def _check_equivalence(body, cross, frac_load, branches, seed,
                       topology, controller_kind):
    phase = PhaseParams(
        name="h",
        body_size=body,
        cross_iter_dep=cross,
        frac_load=frac_load,
        frac_store=min(0.2, frac_load / 2),
        inner_branches=branches,
        random_branch_frac=0.05,
    )
    trace = generate_trace(
        Profile(name="h", phases=(phase,), schedule="steady"), 1_500, seed=seed
    )
    config = _CONFIGS[topology](8)
    fused = ClusteredProcessor(
        trace, config, _build_controller(controller_kind)
    ).run()
    naive = ClusteredProcessor(
        trace, config, _build_controller(controller_kind), naive_issue=True
    ).run()
    assert fused == naive  # SimStats is a dataclass: field-wise equality


_equivalence_inputs = given(
    body=st.integers(min_value=4, max_value=40),
    cross=st.floats(min_value=0.0, max_value=0.9),
    frac_load=st.floats(min_value=0.0, max_value=0.4),
    branches=st.integers(min_value=0, max_value=3),
    seed=st.integers(min_value=0, max_value=100_000),
    topology=st.sampled_from(sorted(_CONFIGS)),
    controller_kind=st.sampled_from(["none", "static-2", "static-8", "no-explore"]),
)


class TestEventIssueEquivalence:
    @_equivalence_inputs
    @settings(max_examples=10, deadline=None)
    def test_smoke(self, **case):
        _check_equivalence(**case)

    @pytest.mark.slow
    @_equivalence_inputs
    @settings(max_examples=200, deadline=None)
    def test_exhaustive(self, **case):
        _check_equivalence(**case)
