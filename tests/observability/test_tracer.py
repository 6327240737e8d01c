"""Tracer sinks: the passive-observation contract and event emission."""

import dataclasses

import pytest

from repro import ClusteredProcessor
from repro.observability import (
    NULL_TRACER,
    MemoryTracer,
    Tracer,
    TraceSession,
    read_jsonl,
    validate_event,
)
from repro.observability.events import EVENT_FIELDS


def run(trace, config, tracer=None, policy=None):
    from repro.experiments.sweep import ControllerSpec

    makers = {
        "explore": ControllerSpec.explore,
        "no-explore": ControllerSpec.no_explore,
        "finegrain": ControllerSpec.finegrain,
    }
    controller = makers[policy]().build() if policy else None
    processor = ClusteredProcessor(trace, config, controller, tracer=tracer)
    processor.run()
    return processor.stats


class TestNullTracer:
    def test_disabled_and_inert(self):
        assert not NULL_TRACER.enabled
        assert NULL_TRACER.sample_period == 0
        NULL_TRACER.emit("sample", cycle=0, committed=0)  # swallowed
        NULL_TRACER.close()

    def test_default_is_null(self, gzip_trace, config16):
        processor = ClusteredProcessor(gzip_trace, config16, None)
        assert processor.tracer is NULL_TRACER


class TestBitIdentity:
    """Tracing is passive: traced statistics equal untraced statistics."""

    @pytest.mark.parametrize("policy", [None, "explore", "no-explore",
                                        "finegrain"])
    def test_traced_equals_untraced(self, gzip_trace, config16, policy):
        baseline = run(gzip_trace, config16, policy=policy)
        traced = run(gzip_trace, config16, tracer=MemoryTracer(500),
                     policy=policy)
        assert dataclasses.asdict(traced) == dataclasses.asdict(baseline)

    def test_explicit_null_tracer_equals_none(self, gzip_trace, config16):
        baseline = run(gzip_trace, config16)
        explicit = run(gzip_trace, config16, tracer=NULL_TRACER)
        assert dataclasses.asdict(explicit) == dataclasses.asdict(baseline)


class TestMemoryTracer:
    def test_events_valid_and_ordered(self, gzip_trace, config16):
        tracer = MemoryTracer(sample_period=500)
        run(gzip_trace, config16, tracer=tracer, policy="explore")
        assert tracer.events, "an explore run must emit events"
        for event in tracer.events:
            validate_event(event)
        assert tracer.events[0]["kind"] == "run_start"
        assert tracer.events[0]["workload"] == gzip_trace.name
        cycles = [e["cycle"] for e in tracer.events]
        assert cycles == sorted(cycles), "events must be in cycle order"
        samples = [e for e in tracer.events if e["kind"] == "sample"]
        assert len(samples) >= 2
        assert all(s["rob"] >= 0 and s["ipc"] >= 0 for s in samples)

    def test_sample_period_throttles(self, gzip_trace, config16):
        coarse = MemoryTracer(sample_period=2_000)
        fine = MemoryTracer(sample_period=200)
        run(gzip_trace, config16, tracer=coarse)
        run(gzip_trace, config16, tracer=fine)
        count = lambda t: sum(e["kind"] == "sample" for e in t.events)
        assert count(fine) > count(coarse)

    def test_zero_period_disables_sampling(self, gzip_trace, config16):
        tracer = MemoryTracer(sample_period=0)
        run(gzip_trace, config16, tracer=tracer)
        assert all(e["kind"] != "sample" for e in tracer.events)

    def test_reconfig_events_match_stat(self, gzip_trace, config16):
        tracer = MemoryTracer(sample_period=0)
        stats = run(gzip_trace, config16, tracer=tracer, policy="explore")
        reconfigs = [e for e in tracer.events if e["kind"] == "reconfig"]
        assert len(reconfigs) == stats.reconfigurations
        for event in reconfigs:
            assert event["before"] != event["after"]


class TestTraceSession:
    def test_exports_three_files(self, gzip_trace, config16, tmp_path):
        session = TraceSession(tmp_path / "out", sample_period=500)
        run(gzip_trace, config16, tracer=session, policy="explore")
        session.close()
        session.close()  # idempotent
        for name in ("events.jsonl", "timeline.csv", "trace.json"):
            assert (tmp_path / "out" / name).exists()
        assert read_jsonl(tmp_path / "out" / "events.jsonl") == session.events


class TestControllerEmissions:
    def test_explore_cycle_event_sequence(self, phased_trace, config16):
        tracer = MemoryTracer(sample_period=0)
        run(phased_trace, config16, tracer=tracer, policy="explore")
        kinds = [e["kind"] for e in tracer.events]
        assert "explore_start" in kinds
        # within one exploration: start, then samples, then the decision
        # (or a phase change that aborts it)
        start = kinds.index("explore_start")
        tail = kinds[start + 1:]
        assert any(k in ("explore_decision", "phase_change") for k in tail)
        for event in tracer.events:
            if event["kind"] == "explore_decision":
                explored = event["explored"]
                assert explored == sorted(explored)
                assert event["chosen"] in [pair[0] for pair in explored]

    def test_no_explore_emits_decisions(self, phased_trace, config16):
        tracer = MemoryTracer(sample_period=0)
        run(phased_trace, config16, tracer=tracer, policy="no-explore")
        kinds = [e["kind"] for e in tracer.events]
        assert "measure_start" in kinds
        assert "distant_decision" in kinds
        for event in tracer.events:
            if event["kind"] == "distant_decision":
                assert event["chosen"] in (4, 16)

    def test_finegrain_emits_table_traffic(self, gzip_trace, config16):
        tracer = MemoryTracer(sample_period=0)
        run(gzip_trace, config16, tracer=tracer, policy="finegrain")
        kinds = [e["kind"] for e in tracer.events]
        assert "table_lookup" in kinds
        lookups = [e for e in tracer.events if e["kind"] == "table_lookup"]
        assert all((e["advised"] is None) == (not e["hit"]) for e in lookups)

    def test_interval_events_carry_window(self, gzip_trace, config16):
        tracer = MemoryTracer(sample_period=0)
        run(gzip_trace, config16, tracer=tracer, policy="explore")
        intervals = [e for e in tracer.events if e["kind"] == "interval"]
        assert intervals
        for event in intervals:
            assert event["controller"] == "IntervalExploreController"
            assert event["interval_length"] >= 1
            assert event["ipc"] >= 0


class TestSchemaCoverage:
    """Every kind in EVENT_FIELDS round-trips through validate_event.

    This is the exhaustive schema check: a new event kind added to
    ``EVENT_FIELDS`` is automatically covered here.
    """

    @pytest.mark.parametrize("kind", sorted(EVENT_FIELDS))
    def test_kind_validates(self, kind):
        event = {"kind": kind, "cycle": 1, "committed": 1}
        event.update({f: 0 for f in EVENT_FIELDS[kind]})
        validate_event(event)

    @pytest.mark.parametrize("kind", sorted(EVENT_FIELDS))
    def test_kind_rejects_extra_and_missing_fields(self, kind):
        event = {"kind": kind, "cycle": 1, "committed": 1}
        event.update({f: 0 for f in EVENT_FIELDS[kind]})
        with pytest.raises(ValueError, match="unexpected"):
            validate_event({**event, "bogus": 1})
        short = dict(event)
        del short["committed"]
        with pytest.raises(ValueError, match="missing"):
            validate_event(short)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown event kind"):
            validate_event({"kind": "warp_core_breach", "cycle": 1,
                            "committed": 1})


class TestFaultEmissions:
    """Architectural fault events: fault_inject and the remap pair."""

    def faulted_run(self, trace, config, policy="explore"):
        from repro.experiments.sweep import ControllerSpec
        from repro.resilience import FaultEvent, FaultSchedule

        schedule = FaultSchedule((
            FaultEvent(cycle=800, kind="cluster_kill", cluster=5),
            FaultEvent(cycle=1_000, kind="fu_disable", cluster=2,
                       unit="int_alu"),
            FaultEvent(cycle=1_200, kind="link_degrade", src=1, dst=2),
        ))
        tracer = MemoryTracer(sample_period=0)
        makers = {"explore": ControllerSpec.explore,
                  "finegrain": ControllerSpec.finegrain}
        processor = ClusteredProcessor(
            trace, config, makers[policy]().build(), tracer=tracer,
            fault_schedule=schedule,
        )
        processor.run()
        return tracer, processor.stats, schedule

    def test_fault_events_validate_and_count(self, gzip_trace, config16):
        tracer, stats, schedule = self.faulted_run(gzip_trace, config16)
        for event in tracer.events:
            validate_event(event)
        injects = [e for e in tracer.events if e["kind"] == "fault_inject"]
        assert len(injects) == len(schedule) == stats.faults_injected
        assert [e["fault"] for e in injects] == [
            ev.kind for ev in schedule.events
        ]
        assert injects[0]["target"] == "cluster:5"

    def test_kill_emits_remap_pair(self, gzip_trace, config16):
        tracer, stats, _ = self.faulted_run(gzip_trace, config16)
        starts = [e for e in tracer.events if e["kind"] == "remap_start"]
        dones = [e for e in tracer.events if e["kind"] == "remap_done"]
        assert len(starts) == len(dones) == 1
        assert starts[0]["target"] == dones[0]["target"] == "cluster:5"
        assert starts[0]["live"] == config16.num_clusters - 1
        assert dones[0]["latency"] >= 0
        assert dones[0]["cycle"] >= starts[0]["cycle"]
        assert stats.cluster_kills == 1

    def test_faulted_tracing_is_passive(self, gzip_trace, config16):
        _, traced_stats, _ = self.faulted_run(gzip_trace, config16)
        _, again, _ = self.faulted_run(gzip_trace, config16)
        assert dataclasses.asdict(traced_stats) == dataclasses.asdict(again)


class TestSubclassContract:
    def test_custom_tracer_receives_kind_first(self, gzip_trace, config16):
        seen = []

        class Probe(Tracer):
            enabled = True
            sample_period = 1_000

            def emit(self, kind, **fields):
                seen.append((kind, fields))

        run(gzip_trace, config16, tracer=Probe())
        assert seen[0][0] == "run_start"
        assert {"cycle", "committed"} <= set(seen[0][1])
