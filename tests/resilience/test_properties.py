"""Hypothesis property test over random cluster-kill schedules.

A seeded random kill schedule on the single-thread pipeline always
completes the trace, counts its injections, and replays bit-identically
(traced or not).

CI's chaos job runs these with ``REPRO_HYPOTHESIS_PROFILE=thorough`` on
pushes; PRs and local runs use the fast profile's smaller budget.
"""

import dataclasses
import os

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import default_config, generate_trace, get_profile
from repro.observability import MemoryTracer
from repro.pipeline.processor import ClusteredProcessor
from repro.resilience import FaultSchedule

settings.register_profile("fast", max_examples=10, deadline=None)
settings.register_profile("thorough", max_examples=75, deadline=None)
settings.load_profile(os.environ.get("REPRO_HYPOTHESIS_PROFILE", "fast"))

#: one short trace shared by every example (hypothesis forbids
#: function-scoped fixtures; module scope is also simply faster)
TRACE = generate_trace(get_profile("gzip"), 2_000, seed=7)


@given(seed=st.integers(0, 2**32 - 1), faults=st.integers(1, 4))
def test_seeded_kills_complete_and_replay(seed, faults):
    """Any seeded cluster-kill schedule degrades gracefully."""
    schedule = FaultSchedule.seeded(
        seed,
        cycles=2_000,
        faults=faults,
        kinds=("cluster",),
        window=(200, 900),  # all events fire well before the run ends
    )
    config = default_config(16)

    def run(tracer=None):
        proc = ClusteredProcessor(TRACE, config, None, tracer=tracer,
                                  fault_schedule=schedule)
        proc.run()
        return proc.stats

    baseline = run()
    assert baseline.committed == len(TRACE)
    if schedule:
        assert baseline.faults_injected >= 1
        assert baseline.cluster_kills >= 1
    snapshot = dataclasses.asdict(baseline)
    assert dataclasses.asdict(run()) == snapshot
    assert dataclasses.asdict(run(MemoryTracer(sample_period=200))) == (
        snapshot
    )
