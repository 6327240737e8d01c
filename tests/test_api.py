"""The stable facade (`repro.api`) and the entry-point deprecation shims."""

import dataclasses
import re
import threading

import pytest

from repro.api import SimResult, SimSpec, simulate, sweep
from repro.config import default_config
from repro.errors import ConfigError
from repro.experiments.runner import run_trace
from repro.experiments.sweep import ControllerSpec
from repro.multiprog import MultiProgSpec
from repro.pipeline.processor import ClusteredProcessor
from repro.workloads import BENCHMARK_NAMES

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
        engine = ClusteredProcessor(parallel_trace, config16).run()
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


class TestUnknownWorkload:
    """An unknown profile name fails when the spec is built, naming the
    nine profiles, as an unknown topology, policy or arbiter does."""

    @pytest.mark.parametrize("build", [
        pytest.param(lambda: SimSpec("gzp"), id="SimSpec"),
        pytest.param(lambda: MultiProgSpec(("swim", "gzp")), id="MultiProgSpec"),
    ])
    def test_spec_names_the_profiles(self, build):
        with pytest.raises(ConfigError, match=re.escape(repr(BENCHMARK_NAMES))):
            build()


def _sweep(*specs, **kwargs):
    return sweep(specs, backend="serial", cache=False, **kwargs)


#: one misspelled keyword or vocabulary string per entry point
TYPOS = [
    pytest.param(lambda: SimSpec("gzip", topolgy="grid"), TypeError,
                 id="SimSpec-keyword"),
    pytest.param(lambda: simulate("gzip", trace_length=1_000, topolgy="grid"),
                 TypeError, id="simulate-keyword"),
    pytest.param(lambda: _sweep(SimSpec("gzip", trace_length=1_000), jbos=2),
                 TypeError, id="sweep-keyword"),
    pytest.param(lambda: simulate(("gzip", "swim"), trace_length=1_000,
                                  arbitr="static"),
                 ConfigError, id="multiprog-keyword"),
    pytest.param(lambda: simulate("gzip", trace_length=1_000, topology="rnig"),
                 ConfigError, id="topology"),
    pytest.param(lambda: simulate("gzip", trace_length=1_000,
                                  reconfig_policy="explroe"),
                 ConfigError, id="policy"),
    pytest.param(lambda: simulate("gzp", trace_length=1_000), ConfigError,
                 id="workload"),
    pytest.param(lambda: simulate(("gzip", "swim"), trace_length=1_000,
                                  arbiter="comm-awre"),
                 ConfigError, id="arbiter"),
    pytest.param(lambda: _sweep(SimSpec("gzip", trace_length=1_000,
                                        topology="rnig")),
                 ConfigError, id="sweep-topology"),
    pytest.param(lambda: _sweep(SimSpec("gzip", trace_length=1_000,
                                        reconfig_policy="explroe")),
                 ConfigError, id="sweep-policy"),
    pytest.param(lambda: _sweep(SimSpec("gzp", trace_length=1_000)),
                 ConfigError, id="sweep-workload"),
    pytest.param(lambda: _sweep(MultiProgSpec(("gzip", "swim"),
                                              arbiter="comm-awre")),
                 ConfigError, id="sweep-arbiter"),
]


class TestTyposFailBeforeAnyRun:
    """A misspelled keyword or vocabulary string raises before the first
    simulation starts, so a long sweep never dies on it halfway."""

    @pytest.fixture(autouse=True)
    def _refuse_to_simulate(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a simulation started")

        for target in (
            "repro.experiments.runner.run_trace",
            "repro.experiments.sweep.run_trace",
            "repro.api.run_multiprog",
            "repro.experiments.sweep.run_multiprog",
        ):
            monkeypatch.setattr(target, refuse)

    @pytest.mark.parametrize("call, error", TYPOS)
    def test_raises_before_any_run(self, call, error):
        with pytest.raises(error):
            call()


class TestStaticClusterCount:
    """A static cluster count the machine cannot run is refused before
    the processor advances a cycle; other controllers keep the clamp."""

    @pytest.fixture(autouse=True)
    def _refuse_to_advance(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the processor advanced")

        monkeypatch.setattr(ClusteredProcessor, "advance_to", refuse)

    @pytest.mark.parametrize(
        "policy, message",
        [
            pytest.param(policy, message, id=policy)
            for policy, message in (
                ("static-0", "positive cluster count"),
                ("static-x", "positive cluster count"),
                ("static--3", "positive cluster count"),
                ("static-32", "asks for 32 clusters, but the machine has 16"),
            )
        ],
    )
    def test_refused_before_any_cycle(self, policy, message):
        with pytest.raises(ConfigError, match=message):
            simulate("gzip", trace_length=2_000, reconfig_policy=policy)

    def test_a_count_the_machine_has_runs(self):
        with pytest.raises(AssertionError, match="advanced"):
            simulate("gzip", trace_length=2_000, reconfig_policy="static-16")


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
    """The pre-facade positional spellings completed their deprecation
    cycle and are gone: both entry points are keyword-only now, so a
    reintroduced ``*args`` shim fails these tests."""

    def test_facade_positional_config_rejected(self, parallel_trace, config16):
        with pytest.raises(TypeError):
            simulate(parallel_trace, config16)

    def test_run_trace_positional_warmup_rejected(self, parallel_trace, config16):
        with pytest.raises(TypeError):
            run_trace(parallel_trace, config16, None, 1_000)

    def test_keyword_spellings_do_not_warn(self, parallel_trace, config16):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            simulate(parallel_trace, processor=config16)
            run_trace(parallel_trace, config16, warmup=1_000)


class TestMaxInstructionsContract:
    """`max_instructions` is commit-bounded: the run stops at the first
    cycle boundary at or past the limit, overshooting by at most
    ``commit_width - 1`` (see ``ClusteredProcessor.run``)."""

    def test_none_runs_whole_trace(self, parallel_trace, config16):
        stats = ClusteredProcessor(parallel_trace, config16).run()
        assert stats.committed == len(parallel_trace)

    @pytest.mark.parametrize("limit", [1, 17, 1_000])
    def test_overshoot_bounded_by_commit_width(self, parallel_trace, config16, limit):
        stats = ClusteredProcessor(parallel_trace, config16).run(limit)
        width = config16.front_end.commit_width
        assert limit <= stats.committed <= limit + width - 1

    def test_committed_count_pinned(self, parallel_trace, config16):
        """The exact committed count is deterministic — pin it so any change
        to the bounding behaviour (e.g. stopping mid-cycle) is caught."""
        a = ClusteredProcessor(parallel_trace, config16).run(1_000)
        b = ClusteredProcessor(parallel_trace, config16).run(1_000)
        assert a.committed == b.committed
        # and the bound is commit-cycle aligned: re-running the same machine
        # to the overshoot count commits exactly that many
        c = ClusteredProcessor(parallel_trace, config16).run(a.committed)
        assert c.committed == a.committed

    def test_limit_beyond_trace_is_clamped(self, parallel_trace, config16):
        stats = ClusteredProcessor(parallel_trace, config16).run(
            10 * len(parallel_trace)
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
