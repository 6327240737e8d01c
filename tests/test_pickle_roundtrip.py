"""Everything the sweep engine ships across process boundaries must pickle.

``SweepRunner`` sends ``RunSpec`` objects to worker processes and receives
``RunRecord`` objects back; the result cache pickles records to disk.  A
single non-picklable attribute anywhere in that object graph breaks the
parallel path with an opaque ``PicklingError`` — so every participating
type gets an explicit round-trip test here.
"""

import dataclasses
import pickle

import pytest

from repro.config import (
    decentralized_config,
    default_config,
    grid_config,
    monolithic_config,
)
from repro.experiments.runner import run_trace
from repro.experiments.sweep import ControllerSpec, RunSpec, execute_spec
from repro.observability import MemoryTracer
from repro.stats import SimStats
from repro.workloads.generator import generate_trace
from repro.workloads.profiles import get_profile

from .specs import RUN_SPEC

LEN = 2_000


def roundtrip(obj):
    return pickle.loads(pickle.dumps(obj))


class TestConfigs:
    @pytest.mark.parametrize(
        "config",
        [
            default_config(16),
            decentralized_config(16),
            monolithic_config(),
            grid_config(16),
        ],
        ids=["default", "decentralized", "monolithic", "grid"],
    )
    def test_config_roundtrip(self, config):
        assert roundtrip(config) == config


class TestControllers:
    SPECS = [
        ControllerSpec.none(),
        ControllerSpec.static(4),
        ControllerSpec.explore(),
        ControllerSpec.no_explore(),
        ControllerSpec.finegrain(),
        ControllerSpec.subroutine(),
    ]

    @pytest.mark.parametrize("spec", SPECS, ids=[s.kind for s in SPECS])
    def test_spec_and_built_controller_roundtrip(self, spec):
        assert roundtrip(spec) == spec
        controller = spec.build()
        clone = roundtrip(controller)
        assert type(clone) is type(controller)


class TestWorkloads:
    def test_profile_roundtrip(self):
        profile = get_profile("gzip")
        assert roundtrip(profile) == profile

    def test_trace_roundtrip(self):
        trace = generate_trace(get_profile("gzip"), LEN, seed=7)
        clone = roundtrip(trace)
        assert len(clone) == len(trace)
        first, cloned = trace.instructions[0], clone.instructions[0]
        assert (first.op, first.src1, first.src2) == (
            cloned.op,
            cloned.src1,
            cloned.src2,
        )


class TestResults:
    def test_simstats_roundtrip(self):
        stats = SimStats(cycles=100, committed=250, mispredicts=3)
        assert roundtrip(stats).snapshot() == stats.snapshot()

    def test_run_result_roundtrip(self):
        trace = generate_trace(get_profile("gzip"), LEN, seed=7)
        result = run_trace(trace, default_config(16), warmup=500, label="pkl")
        clone = roundtrip(result)
        assert clone.ipc == result.ipc
        assert clone.stats.snapshot() == result.stats.snapshot()

    def test_attached_controller_roundtrip(self):
        """A controller survives pickling while attached to the processor
        it ran, and its tracer keeps the reconfiguration sequence."""
        trace = generate_trace(get_profile("swim"), LEN, seed=7)
        controller = ControllerSpec.explore().build()
        result = run_trace(
            trace, default_config(16), controller, warmup=500,
            tracer=MemoryTracer(),
        )
        assert result.committed > 0
        clone = roundtrip(controller)

        def reconfigs(ctl):
            return [e for e in ctl.tracer.events if e["kind"] == "reconfig"]

        assert reconfigs(controller)
        assert reconfigs(clone) == reconfigs(controller)
        assert type(clone) is type(controller)
        assert clone.processor.stats == controller.processor.stats


def dataclass_values(obj):
    """``obj`` and every dataclass instance reachable through its fields."""
    if dataclasses.is_dataclass(obj):
        yield obj
        for f in dataclasses.fields(obj):
            yield from dataclass_values(getattr(obj, f.name))
    elif isinstance(obj, (tuple, list)):
        for item in obj:
            yield from dataclass_values(item)


class TestSweepTypes:
    def test_run_spec_roundtrip(self):
        clone = roundtrip(RUN_SPEC)
        assert clone == RUN_SPEC
        assert clone.cache_key() == RUN_SPEC.cache_key()

    def test_run_spec_values_are_frozen(self):
        """A spec is a value: every dataclass inside it is frozen, so a
        worker or cache reader can never see one mutated in flight."""
        values = list(dataclass_values(RUN_SPEC))
        kinds = {type(v).__name__ for v in values}
        assert {"RunSpec", "MultiProgSpec", "FaultEvent", "ExploreConfig"} <= kinds
        for value in values:
            name = dataclasses.fields(value)[0].name
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(value, name, getattr(value, name))

    def test_run_record_roundtrip(self):
        spec = RunSpec(
            profile="gzip",
            trace_length=LEN,
            config=default_config(16),
            controller=ControllerSpec.explore(),
        )
        record = execute_spec(spec)
        assert record.ok
        clone = roundtrip(record)
        assert clone.status == "ok"
        assert clone.result.stats.snapshot() == record.result.stats.snapshot()
        assert clone.result.stats == record.result.stats

    def test_failed_record_roundtrip(self):
        record = execute_spec(RunSpec(profile="not-a-benchmark", trace_length=LEN))
        assert record.status == "failed"
        clone = roundtrip(record)
        assert clone.error == record.error
