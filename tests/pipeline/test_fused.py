"""The fused cycle loop's contracts beyond naive equivalence.

* **Cycle-bounded advance.**  ``advance(until_cycle=...)`` stops with the
  clock exactly on the bound, and a run advanced in arbitrary cycle-bounded
  chunks is bit-identical — statistics and trace events — to one
  unbounded ``run()``, with faults and a tracer attached.  The multiprog
  scheduler advances every thread one epoch segment at a time and relies
  on exactly this.
* **run_trace's lifecycle** (fused warmup leg, then ``run()``) matches the
  same lifecycle driven on the naive reference loop, including the
  commit bound and the warmup clamp on tiny traces; both legs run under
  the wedge guard.
* **The booking horizon.**  The fused loop forgets link and port bookings
  older than the ROB head's dispatch, so a run holds what its work in
  flight booked, not what its whole trace booked; the exactness suites
  all run with pruning on.
"""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.clusters.steering import SteeringHeuristic
from repro.config import decentralized_config, default_config, torus_config
from repro.core import DistantILPController, NoExploreConfig, StaticController
from repro.errors import SimulationError
from repro.experiments.runner import run_trace
from repro.memory.hierarchy import DecentralizedMemory
from repro.observability import MemoryTracer
from repro.pipeline.fused import _PRUNE_EVERY, FusedCore
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
    "kill": FaultSchedule((
        FaultEvent(cycle=300, kind="cluster_kill", cluster=3),
    )),
    "links-and-fus": FaultSchedule((
        FaultEvent(cycle=250, kind="link_degrade", src=2, dst=3, factor=3),
        FaultEvent(cycle=500, kind="fu_disable", cluster=2, unit="int_alu"),
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
            proc.advance(until_cycle=proc.cycle + 1)
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

    def test_warmup_leg_is_wedge_guarded(self):
        """A pipeline that never dispatches stops with the wedge error
        during warmup too, instead of spinning forever."""

        class NeverSteer(SteeringHeuristic):
            def choose(self, instr, producer_clusters, active, preferred=None):
                return None

        trace = generate_trace(get_profile("gzip"), 1_500, seed=7)
        with pytest.raises(SimulationError, match="pipeline wedged"):
            run_trace(trace, default_config(16), warmup=500, steering=NeverSteer)


class TestFusedCoreGuards:
    def test_naive_issue_rejected(self):
        """The fused loop transcribes the event-driven issue stage only;
        the naive oracle must be refused, not silently mis-run."""
        processor = ClusteredProcessor(
            _TRACES["gzip"], default_config(16), None, naive_issue=True
        )
        with pytest.raises(SimulationError, match="naive_issue"):
            FusedCore(processor)


def _reservers(p):
    """The link, L1-port and L2-port calendars of a processor."""
    memory = p.memory
    ports = memory.ports if isinstance(memory, DecentralizedMemory) else memory.banks
    return (p.network._links, ports, memory.l2.port)


def _bookings(p):
    return sum(len(calendar) for r in _reservers(p) for calendar in r._booked)


class TestBookingHorizon:
    @staticmethod
    def _swim_static16(length, naive_issue=False):
        trace = generate_trace(get_profile("swim"), length, seed=7)
        p = ClusteredProcessor(
            trace, decentralized_config(16), StaticController(16),
            naive_issue=naive_issue,
        )
        p.run()
        return p

    def test_kept_bookings_do_not_grow_with_the_trace(self):
        """A 16k-instruction run ends holding fewer bookings than a 4k run
        makes in all (the reference loop keeps every booking it made)."""
        booked_4k = _bookings(self._swim_static16(4_000, naive_issue=True))
        kept_16k = _bookings(self._swim_static16(16_000))
        assert kept_16k < booked_4k

    @pytest.mark.parametrize("topology", ["ring", "decentralized"])
    def test_floor_advances_in_a_short_run(self, topology):
        """The fingerprint trace length (3k) moves every calendar's floor,
        the naive-vs-fused examples (1,500 instructions) prune at least
        five times, and the reference loop never prunes."""
        trace = generate_trace(get_profile("gzip"), 3_000, seed=13)
        fused = ClusteredProcessor(trace, _CONFIGS[topology](16))
        fused.run()
        naive = ClusteredProcessor(trace, _CONFIGS[topology](16), naive_issue=True)
        naive.run()
        assert fused.stats == naive.stats
        assert all(r._floor > 0 for r in _reservers(fused))
        assert all(r._floor == 0 for r in _reservers(naive))
        assert 1_500 // _PRUNE_EVERY >= 5
