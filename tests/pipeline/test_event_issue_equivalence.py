"""The fused cycle loop must be bit-identical to the naive reference loop.

The production loop (:class:`~repro.pipeline.fused.FusedCore`) inlines the
stages, selects event-driven (skipping clusters until their `wake_cycle`)
and jumps over idle cycles; the stage-by-stage loop with a full select
scan survives as ``ClusteredProcessor(..., naive_issue=True)`` precisely so
this property can be checked forever: for ANY workload shape, machine
topology, cluster count and controller, the two loops must produce
byte-for-byte identical statistics.  A single missed wakeup or an
over-long idle skip shows up here as a cycle-count divergence.

Two kinds of machine are drawn.  One runs every controller, with 0-3
seeded faults of all three kinds, so the fused loop's fault poll and
latency-table refresh and finegrain's reconfiguration from ``on_dispatch``
are checked too.  The other narrows dispatch to a random owned set with
``steering.set_owned``, as the multiprog scheduler does, on every fabric.

The exhaustive 200-example sweep is `slow` (it runs in the CI slow job);
a small smoke sample rides in the fast tier.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import FABRICS, TOPOLOGIES
from repro.core import (
    DistantILPController,
    ExploreConfig,
    FineGrainConfig,
    FineGrainController,
    IntervalExploreController,
    NoExploreConfig,
    StaticController,
    SubroutineController,
)
from repro.interconnect.network import build_topology
from repro.pipeline.processor import ClusteredProcessor
from repro.resilience import FaultSchedule
from repro.workloads.blocks import PhaseParams
from repro.workloads.generator import Profile, generate_trace

CLUSTERS = 8
LENGTH = 1_500

#: short intervals and quick-learning tables, so every controller
#: reconfigures inside a 1,500-instruction trace
_QUICK_FINEGRAIN = FineGrainConfig(branch_stride=1, samples_needed=2)
_CONTROLLERS = {
    "none": lambda: None,
    "static-2": lambda: StaticController(2),
    "static-8": lambda: StaticController(8),
    "no-explore": lambda: DistantILPController(NoExploreConfig.scaled(interval_length=400)),
    "explore": lambda: IntervalExploreController(ExploreConfig.scaled(initial_interval=200)),
    "finegrain": lambda: FineGrainController(_QUICK_FINEGRAIN),
    "subroutine": lambda: SubroutineController(_QUICK_FINEGRAIN),
}


def _fault_schedule(config, faults, seed):
    """``faults`` seeded kills, FU disables and link degrades (or None)."""
    if not faults:
        return None
    links = build_topology(config.interconnect, CLUSTERS).link_endpoints()
    return FaultSchedule.seeded(
        seed,
        cycles=LENGTH,
        num_clusters=CLUSTERS,
        faults=faults,
        kinds=("cluster", "fu", "link"),
        home_cluster=config.home_cluster,
        links=sorted(set(links.values())),
    )


def _check_equivalence(body, cross, frac_load, branches, seed, machine):
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
        Profile(name="h", phases=(phase,), schedule="steady"), LENGTH, seed=seed
    )
    config = TOPOLOGIES[machine["topology"]](CLUSTERS)
    build = _CONTROLLERS[machine["controller"]]
    faults = _fault_schedule(config, machine["faults"], seed)
    processors = [
        ClusteredProcessor(trace, config, build(), naive_issue=naive, fault_schedule=faults)
        for naive in (False, True)
    ]
    fused, naive = processors
    if machine["owned"] is not None:
        for processor in processors:
            processor.steering.set_owned(machine["owned"])
    assert fused.run() == naive.run()  # SimStats is a dataclass: field-wise equality


_machines = st.one_of(
    st.fixed_dictionaries({
        "topology": st.sampled_from(("ring", "grid", "decentralized", "torus")),
        "controller": st.sampled_from(sorted(_CONTROLLERS)),
        "faults": st.integers(min_value=0, max_value=3),
        "owned": st.none(),
    }),
    st.fixed_dictionaries({
        "topology": st.sampled_from(FABRICS),
        "controller": st.just("none"),
        "faults": st.just(0),
        "owned": st.frozensets(
            st.integers(min_value=0, max_value=CLUSTERS - 1), min_size=1
        ),
    }),
)

_equivalence_inputs = given(
    body=st.integers(min_value=4, max_value=40),
    cross=st.floats(min_value=0.0, max_value=0.9),
    frac_load=st.floats(min_value=0.0, max_value=0.4),
    branches=st.integers(min_value=0, max_value=3),
    seed=st.integers(min_value=0, max_value=100_000),
    machine=_machines,
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
