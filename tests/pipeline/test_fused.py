"""The fused cycle loop's contracts beyond naive equivalence.

* **Cycle-bounded advance.**  ``advance(until_cycle=...)`` stops with the
  clock exactly on the bound, and a run advanced in arbitrary cycle-bounded
  chunks is bit-identical — statistics and trace events — to one
  unbounded ``run()``, with faults and a tracer attached.  The multiprog
  scheduler advances every thread one epoch segment at a time and relies
  on exactly this.
* **run_trace's lifecycle** (fused warmup leg, then ``run()``) matches the
  same lifecycle driven on the naive reference loop, including the
  commit bound and the warmup clamp on tiny traces.
"""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import decentralized_config, default_config, torus_config
from repro.core import DistantILPController, NoExploreConfig, StaticController
from repro.errors import SimulationError
from repro.experiments.runner import run_trace
from repro.observability import MemoryTracer
from repro.pipeline.fused import FusedCore
from repro.pipeline.processor import ClusteredProcessor
from repro.resilience import FaultEvent, FaultSchedule
from repro.workloads import generate_trace, get_profile

_CONFIGS = {
    "ring": default_config,
    "torus": torus_config,
    "decentralized": decentralized_config,
}

#: fault schedules crossing every fault kind; link endpoints (2, 3) are
#: neighbors on all three 8-cluster fabrics
_SCHEDULES = {
    "healthy": None,
    "kill-restore": FaultSchedule((
        FaultEvent(cycle=300, kind="cluster_kill", cluster=3),
        FaultEvent(cycle=900, kind="cluster_restore", cluster=3),
    )),
    "links-and-fus": FaultSchedule((
        FaultEvent(cycle=250, kind="link_degrade", src=2, dst=3, factor=3),
        FaultEvent(cycle=500, kind="fu_disable", cluster=2, unit="int_alu"),
        FaultEvent(cycle=700, kind="link_sever", src=2, dst=3),
    )),
}

_TRACES = {
    name: generate_trace(get_profile(name), 1_500, seed=11)
    for name in ("gzip", "swim", "vpr")
}


def _controller(kind):
    if kind == "none":
        return None
    if kind == "static-4":
        return StaticController(4)
    return DistantILPController(NoExploreConfig.scaled(interval_length=400))


def _processor(case):
    profile, topology, controller, schedule = case
    return ClusteredProcessor(
        _TRACES[profile],
        _CONFIGS[topology](8),
        _controller(controller),
        tracer=MemoryTracer(sample_period=97),
        fault_schedule=_SCHEDULES[schedule],
    )


_cases = st.tuples(
    st.sampled_from(sorted(_TRACES)),
    st.sampled_from(sorted(_CONFIGS)),
    st.sampled_from(["none", "static-4", "no-explore"]),
    st.sampled_from(sorted(_SCHEDULES)),
)


class TestChunkedAdvance:
    @settings(max_examples=10, deadline=None)
    @given(case=_cases, chunks=st.lists(st.integers(1, 400), min_size=1, max_size=8))
    def test_chunked_advance_matches_one_run(self, case, chunks):
        """Random cycle-bounded chunks, cycled until the trace finishes,
        then ``run()`` for its finalization tail, equal one ``run()``."""
        whole = _processor(case)
        whole.run()

        chunked = _processor(case)
        i = 0
        while True:
            bound = chunked.cycle + chunks[i % len(chunks)]
            i += 1
            if chunked.advance(until_cycle=bound):
                break
            assert chunked.cycle == bound
        chunked.run()

        assert dataclasses.asdict(chunked.stats) == dataclasses.asdict(whole.stats)
        assert chunked.tracer.events == whole.tracer.events

    def test_step_advances_exactly_one_cycle(self):
        proc = _processor(("vpr", "ring", "none", "healthy"))
        for expected in range(1, 200):
            proc.step()
            assert proc.cycle == expected

    def test_bound_at_the_current_cycle_is_a_no_op(self):
        proc = _processor(("gzip", "ring", "none", "healthy"))
        proc.advance(until_cycle=50)
        before = dataclasses.asdict(proc.stats)
        assert proc.advance(until_cycle=50) is False
        assert dataclasses.asdict(proc.stats) == before

    def test_commit_target_stops_at_a_cycle_boundary(self):
        proc = _processor(("swim", "ring", "none", "healthy"))
        assert proc.advance(500) is True
        width = proc.config.front_end.commit_width
        assert 500 <= proc.stats.committed < 500 + width


def _naive_run_trace(trace, config, controller, warmup, max_instructions=None):
    """run_trace's lifecycle (clamped warmup, snapshot, measured run) on
    the naive reference loop."""
    proc = ClusteredProcessor(trace, config, controller, naive_issue=True)
    warmup = min(warmup, max(0, len(trace) - 1000))
    if max_instructions is not None:
        warmup = min(warmup, max_instructions)
    proc.advance(warmup)
    cycles0 = proc.cycle
    proc.run(max_instructions)
    return proc.stats, proc.stats.cycles - cycles0


class TestRunTrace:
    def test_max_instructions_honoured(self):
        trace = generate_trace(get_profile("gzip"), 1_200, seed=7)
        config = default_config(16)
        result = run_trace(
            trace, config, StaticController(4), warmup=300, max_instructions=800
        )
        stats, cycles = _naive_run_trace(
            trace, config, StaticController(4), 300, max_instructions=800
        )
        width = config.front_end.commit_width
        assert 800 <= result.stats.committed < 800 + width
        assert dataclasses.asdict(result.stats) == dataclasses.asdict(stats)
        assert result.cycles == cycles

    def test_warmup_clamp_on_tiny_trace(self):
        """warmup > len(trace) - 1000 measures the whole trace."""
        trace = generate_trace(get_profile("gzip"), 500, seed=7)
        config = default_config(16)
        result = run_trace(trace, config, StaticController(4), warmup=6_000)
        stats, cycles = _naive_run_trace(
            trace, config, StaticController(4), 6_000
        )
        assert result.committed == len(trace)
        assert result.cycles == result.stats.cycles == cycles
        assert dataclasses.asdict(result.stats) == dataclasses.asdict(stats)


class TestFusedCoreGuards:
    def test_naive_issue_rejected(self):
        """The fused loop transcribes the event-driven issue stage only;
        the naive oracle must be refused, not silently mis-run."""
        processor = ClusteredProcessor(
            _TRACES["gzip"], default_config(16), None, naive_issue=True
        )
        with pytest.raises(SimulationError, match="naive_issue"):
            FusedCore(processor)
