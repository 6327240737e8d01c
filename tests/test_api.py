"""The stable facade (`repro.api`) and the entry-point deprecation shims."""

import dataclasses
import threading

import pytest

from repro.api import SimResult, SimSpec, simulate, sweep
from repro.config import default_config
from repro.core import StaticController
from repro.errors import ConfigError
from repro.experiments.runner import run_trace
from repro.experiments.sweep import ControllerSpec
from repro.pipeline.processor import ClusteredProcessor
from repro.pipeline.processor import simulate as engine_simulate

from .specs import SIM_SPEC


class TestSimulateFacade:
    def test_profile_name_workload(self):
        result = simulate("gzip", trace_length=3_000, reconfig_policy="static-4")
        assert isinstance(result, SimResult)
        assert 0.0 < result.ipc <= 16.0
        assert result.stats.committed == result.committed

    def test_trace_workload(self, parallel_trace):
        result = simulate(parallel_trace)
        assert result.committed == len(parallel_trace)

    def test_simspec_workload(self, parallel_trace):
        spec = SimSpec(workload=parallel_trace, reconfig_policy="static-8")
        result = simulate(spec)
        assert result.committed == len(parallel_trace)

    def test_kwargs_override_simspec(self, parallel_trace):
        spec = SimSpec(workload=parallel_trace, label="original")
        result = simulate(spec, label="override")
        assert result.label == "override"

    def test_topology_vocabulary(self, parallel_trace):
        decentralized = simulate(parallel_trace, topology="decentralized")
        assert decentralized.stats.store_broadcasts > 0

    def test_unknown_topology_rejected(self, parallel_trace):
        with pytest.raises(ConfigError, match="unknown topology"):
            simulate(parallel_trace, topology="hexgrid")

    def test_unknown_policy_rejected(self, parallel_trace):
        with pytest.raises(ConfigError, match="unknown reconfig_policy"):
            simulate(parallel_trace, reconfig_policy="adaptive")

    def test_controller_spec_policy(self, parallel_trace):
        result = simulate(
            parallel_trace, reconfig_policy=ControllerSpec.static(4)
        )
        assert result.avg_active_clusters <= 4.01

    def test_matches_engine_run(self, parallel_trace, config16):
        """The facade is a veneer: same trace, same machine, same stats."""
        facade = simulate(parallel_trace, processor=config16)
        engine = engine_simulate(parallel_trace, config16)
        assert facade.stats == engine


#: one alternative value per SimSpec field; each differs from the
#: populated spec's value, so each change must reach the RunSpec
SPEC_CHANGES = {
    "workload": "swim",
    "max_instructions": None,
    "seed": SIM_SPEC.seed + 1,
    "topology": "torus",
    "reconfig_policy": "no-explore",
    "clusters": 4,
    "trace_length": SIM_SPEC.trace_length + 1,
    "warmup": SIM_SPEC.warmup + 1,
    "processor": default_config(4),
    "steering": ("first-fit",),
    "faults": None,
    "label": "other",
}


class TestToRunSpec:
    def test_table_covers_every_field(self):
        assert set(SPEC_CHANGES) == {f.name for f in dataclasses.fields(SimSpec)}

    @pytest.mark.parametrize("name", sorted(SPEC_CHANGES))
    def test_every_field_reaches_the_run_spec(self, name):
        changed = dataclasses.replace(SIM_SPEC, **{name: SPEC_CHANGES[name]})
        assert changed.to_run_spec() != SIM_SPEC.to_run_spec()


class TestNoStrayThreads:
    """The simulator is single-threaded and sweep parallelism comes from
    worker processes, so neither entry point may leave a thread behind."""

    def test_simulate_starts_no_thread(self, parallel_trace):
        before = set(threading.enumerate())
        simulate(parallel_trace, reconfig_policy="explore")
        assert set(threading.enumerate()) - before == set()

    def test_serial_sweep_starts_no_thread(self, tmp_path):
        before = set(threading.enumerate())
        sweep([SimSpec(workload="gzip", trace_length=2_000)],
              backend="serial", cache_dir=tmp_path).require_ok()
        assert set(threading.enumerate()) - before == set()


class TestSweepFacade:
    def test_simspec_matrix(self, tmp_path):
        specs = [
            SimSpec(workload="gzip", trace_length=2_000,
                    reconfig_policy=f"static-{n}")
            for n in (4, 16)
        ]
        result = sweep(specs, jobs=1, cache_dir=tmp_path)
        assert result.ok
        assert len(result) == 2
        assert all(r is not None for r in result.results)

    def test_trace_workload_rejected(self, parallel_trace):
        with pytest.raises(ConfigError, match="profile-name workloads"):
            sweep([SimSpec(workload=parallel_trace)])

    def test_non_spec_entry_rejected(self):
        with pytest.raises(ConfigError, match="SimSpec, MultiProgSpec, or RunSpec"):
            sweep(["gzip"])


class TestRetiredSpellings:
    """The three pre-facade positional spellings completed their
    deprecation cycle and are gone: the signatures are keyword-only now,
    so a reintroduced ``*args`` shim fails these tests."""

    def test_facade_positional_config_rejected(self, parallel_trace, config16):
        with pytest.raises(TypeError):
            simulate(parallel_trace, config16)

    def test_engine_positional_controller_rejected(self, parallel_trace, config16):
        with pytest.raises(TypeError):
            engine_simulate(parallel_trace, config16, StaticController(4))

    def test_run_trace_positional_warmup_rejected(self, parallel_trace, config16):
        with pytest.raises(TypeError):
            run_trace(parallel_trace, config16, None, 1_000)

    def test_keyword_spellings_do_not_warn(self, parallel_trace, config16):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            simulate(parallel_trace, processor=config16)
            engine_simulate(parallel_trace, config16,
                            controller=StaticController(4))
            run_trace(parallel_trace, config16, warmup=1_000)


class TestMaxInstructionsContract:
    """`max_instructions` is commit-bounded: the run stops at the first
    cycle boundary at or past the limit, overshooting by at most
    ``commit_width - 1`` (see ``ClusteredProcessor.run``)."""

    def test_none_runs_whole_trace(self, parallel_trace, config16):
        stats = engine_simulate(parallel_trace, config16)
        assert stats.committed == len(parallel_trace)

    @pytest.mark.parametrize("limit", [1, 17, 1_000])
    def test_overshoot_bounded_by_commit_width(self, parallel_trace, config16, limit):
        stats = engine_simulate(parallel_trace, config16, max_instructions=limit)
        width = config16.front_end.commit_width
        assert limit <= stats.committed <= limit + width - 1

    def test_committed_count_pinned(self, parallel_trace, config16):
        """The exact committed count is deterministic — pin it so any change
        to the bounding behaviour (e.g. stopping mid-cycle) is caught."""
        a = engine_simulate(parallel_trace, config16, max_instructions=1_000)
        b = engine_simulate(parallel_trace, config16, max_instructions=1_000)
        assert a.committed == b.committed
        # and the bound is commit-cycle aligned: re-running the same machine
        # to the overshoot count commits exactly that many
        c = engine_simulate(
            parallel_trace, config16, max_instructions=a.committed
        )
        assert c.committed == a.committed

    def test_limit_beyond_trace_is_clamped(self, parallel_trace, config16):
        stats = engine_simulate(
            parallel_trace, config16, max_instructions=10 * len(parallel_trace)
        )
        assert stats.committed == len(parallel_trace)

    def test_narrow_commit_width_tightens_bound(self, parallel_trace, config16):
        narrow = dataclasses.replace(
            config16,
            front_end=dataclasses.replace(config16.front_end, commit_width=2),
        )
        proc = ClusteredProcessor(parallel_trace, narrow)
        stats = proc.run(101)
        assert 101 <= stats.committed <= 102
