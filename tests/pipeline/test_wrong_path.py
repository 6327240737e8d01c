"""Optional wrong-path fetch modeling."""

import dataclasses

import pytest

from repro.config import FrontEndConfig, decentralized_config, default_config
from repro.core import StaticController
from repro.experiments.runner import run_trace
from repro.pipeline.processor import ClusteredProcessor, simulate
from repro.workloads.blocks import PhaseParams
from repro.workloads.generator import Profile, generate_trace
from repro.workloads.profiles import get_profile


def _wrong_path_config(base=None):
    base = base or default_config(16)
    fe = dataclasses.replace(base.front_end, model_wrong_path=True)
    return dataclasses.replace(base, front_end=fe)


@pytest.fixture(scope="module")
def branchy_trace():
    phase = PhaseParams(
        name="branchy",
        body_size=12,
        frac_load=0.2,
        frac_store=0.08,
        cross_iter_dep=0.4,
        inner_branches=2,
        random_branch_frac=0.25,  # mispredicts every ~40 instructions
        biased_taken_prob=0.9,
        mem_pattern="random",
        working_set=8 * 1024,
    )
    return generate_trace(
        Profile(name="branchy", phases=(phase,), schedule="steady"), 5_000, seed=3
    )


class TestWrongPath:
    def test_all_real_instructions_commit(self, branchy_trace):
        stats = simulate(branchy_trace, _wrong_path_config())
        assert stats.committed == len(branchy_trace)

    def test_wrong_path_work_is_squashed(self, branchy_trace):
        stats = simulate(branchy_trace, _wrong_path_config())
        assert stats.mispredicts > 10
        assert stats.squashed > 0
        # every squashed instruction was also fetched and dispatched
        assert stats.fetched >= stats.committed + stats.squashed

    def test_default_mode_squashes_nothing(self, branchy_trace):
        stats = simulate(branchy_trace, default_config(16))
        assert stats.squashed == 0

    def test_pipeline_fully_drains(self, branchy_trace):
        proc = ClusteredProcessor(branchy_trace, _wrong_path_config())
        proc.run()
        assert proc.rob.empty
        assert all(c.reset_for_drain_check() for c in proc.clusters)
        assert not proc._records

    def test_wrong_path_costs_performance(self, branchy_trace):
        """Wrong-path work competes for resources, so IPC must not improve
        relative to stall-on-mispredict on a branchy program."""
        stall = simulate(branchy_trace, default_config(16))
        wrong = simulate(branchy_trace, _wrong_path_config())
        assert wrong.ipc <= stall.ipc * 1.02

    def test_distant_counting_skips_wrong_path(self, branchy_trace):
        stats = simulate(branchy_trace, _wrong_path_config())
        assert stats.distant_commits <= stats.committed

    def test_works_with_reconfiguration(self, branchy_trace):
        stats = simulate(
            branchy_trace, _wrong_path_config(), controller=StaticController(4)
        )
        assert stats.committed == len(branchy_trace)

    def test_flag_lives_in_frontend_config(self):
        assert FrontEndConfig().model_wrong_path is False
        assert _wrong_path_config().front_end.model_wrong_path is True


#: the only counters wrong-path fetch moves: its own fetched, dispatched,
#: issued and squashed instructions
_WRONG_PATH_COUNTERS = {"fetched", "dispatched", "issued", "squashed"}


class TestWrongPathIsTimingInert:
    """Pins what the mode does today: it fabricates and squashes work but
    moves no timing counter, on either cache organization."""

    @pytest.mark.parametrize("profile", ["vpr", "gzip"])
    @pytest.mark.parametrize("machine", [default_config, decentralized_config])
    @pytest.mark.parametrize("clusters", [4, 16])
    def test_only_its_own_counters_differ(self, profile, machine, clusters):
        trace = generate_trace(get_profile(profile), 8_000, seed=7)
        base = machine(16)
        stall, wrong = (
            run_trace(
                trace, config, StaticController(clusters), warmup=800
            ).stats
            for config in (base, _wrong_path_config(base=base))
        )
        assert stall.squashed == 0
        assert wrong.squashed > 0
        stall_fields = dataclasses.asdict(stall)
        wrong_fields = dataclasses.asdict(wrong)
        differing = {
            name for name in stall_fields
            if stall_fields[name] != wrong_fields[name]
        }
        assert differing <= _WRONG_PATH_COUNTERS
