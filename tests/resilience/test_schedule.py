"""FaultSchedule / FaultEvent: validation and seeded generation."""

import pytest

from repro import default_config
from repro.errors import ConfigError
from repro.resilience import (
    FAULT_KINDS,
    FU_POOLS,
    FaultEvent,
    FaultSchedule,
)


class TestFaultEventValidation:
    def test_unknown_kind_rejected(self):
        assert FAULT_KINDS == ("cluster_kill", "fu_disable", "link_degrade")
        # the four kinds no exhibit drew are gone with their handlers
        for kind in ("meteor_strike", "cluster_restore", "fu_enable",
                     "link_sever", "link_restore"):
            with pytest.raises(ConfigError, match="unknown fault kind"):
                FaultEvent(cycle=10, kind=kind, cluster=1, src=1, dst=2,
                           unit="int_alu")

    def test_cycle_must_be_positive(self):
        with pytest.raises(ConfigError, match="cycle must be >= 1"):
            FaultEvent(cycle=0, kind="cluster_kill", cluster=1)

    @pytest.mark.parametrize("kind", ["cluster_kill", "fu_disable"])
    def test_cluster_kinds_need_target(self, kind):
        unit = {"unit": "int_alu"} if kind.startswith("fu_") else {}
        with pytest.raises(ConfigError, match="target cluster"):
            FaultEvent(cycle=10, kind=kind, **unit)

    @pytest.mark.parametrize("kind", ["link_degrade"])
    def test_link_kinds_need_distinct_endpoints(self, kind):
        with pytest.raises(ConfigError, match="endpoints"):
            FaultEvent(cycle=10, kind=kind)
        with pytest.raises(ConfigError, match="endpoints"):
            FaultEvent(cycle=10, kind=kind, src=3, dst=3)

    def test_fu_kinds_need_known_pool(self):
        with pytest.raises(ConfigError, match="unit in"):
            FaultEvent(cycle=10, kind="fu_disable", cluster=1, unit="dividers")
        for unit in FU_POOLS:
            FaultEvent(cycle=10, kind="fu_disable", cluster=1, unit=unit)

    def test_degrade_factor_floor(self):
        with pytest.raises(ConfigError, match="factor"):
            FaultEvent(cycle=10, kind="link_degrade", src=1, dst=2, factor=1)

    def test_target_labels(self):
        assert FaultEvent(cycle=1, kind="cluster_kill",
                          cluster=3).target_label() == "cluster:3"
        assert FaultEvent(cycle=1, kind="link_degrade", src=2,
                          dst=3).target_label() == "link:2->3"
        assert FaultEvent(cycle=1, kind="fu_disable", cluster=3,
                          unit="int_alu").target_label() == "fu:3:int_alu"


class TestScheduleContainer:
    def test_events_sorted_stably_by_cycle(self):
        a = FaultEvent(cycle=200, kind="cluster_kill", cluster=1)
        b = FaultEvent(cycle=100, kind="cluster_kill", cluster=2)
        c = FaultEvent(cycle=100, kind="fu_disable", cluster=3, unit="fp_alu")
        schedule = FaultSchedule((a, b, c))
        assert schedule.events == (b, c, a)  # same-cycle order preserved

    def test_bool_and_len(self):
        assert not FaultSchedule()
        assert len(FaultSchedule()) == 0
        one = FaultSchedule((FaultEvent(cycle=5, kind="cluster_kill",
                                        cluster=1),))
        assert one and len(one) == 1

    def test_non_event_rejected(self):
        with pytest.raises(ConfigError, match="must be FaultEvent"):
            FaultSchedule(({"kind": "cluster_kill"},))


class TestValidateFor:
    def test_home_cluster_is_fault_protected(self):
        config = default_config(16)
        for kind, extra in (("cluster_kill", {}),
                            ("fu_disable", {"unit": "int_alu"})):
            schedule = FaultSchedule((
                FaultEvent(cycle=10, kind=kind,
                           cluster=config.home_cluster, **extra),
            ))
            with pytest.raises(ConfigError, match="home cluster"):
                schedule.validate_for(config)

    def test_cluster_index_bounds(self):
        schedule = FaultSchedule((
            FaultEvent(cycle=10, kind="cluster_kill", cluster=16),
        ))
        with pytest.raises(ConfigError, match="16 clusters"):
            schedule.validate_for(default_config(16))

    def test_link_endpoint_bounds(self):
        schedule = FaultSchedule((
            FaultEvent(cycle=10, kind="link_degrade", src=1, dst=99),
        ))
        with pytest.raises(ConfigError, match="exceed"):
            schedule.validate_for(default_config(16))

    def test_valid_schedule_passes(self):
        FaultSchedule((
            FaultEvent(cycle=10, kind="cluster_kill", cluster=5),
            FaultEvent(cycle=20, kind="link_degrade", src=1, dst=2),
        )).validate_for(default_config(16))


class TestSeeded:
    def test_deterministic_for_a_seed(self):
        kw = dict(cycles=10_000, num_clusters=16, faults=4,
                  kinds=("cluster", "fu"))
        assert FaultSchedule.seeded(7, **kw) == FaultSchedule.seeded(7, **kw)
        assert FaultSchedule.seeded(7, **kw) != FaultSchedule.seeded(8, **kw)

    def test_never_targets_home_cluster(self):
        for seed in range(20):
            schedule = FaultSchedule.seeded(
                seed, cycles=5_000, faults=4, home_cluster=0
            )
            for event in schedule.events:
                assert event.cluster != 0

    def test_kinds_draw_known_event_kinds(self):
        schedule = FaultSchedule.seeded(
            3, cycles=8_000, faults=6, kinds=("cluster", "fu", "link"),
            links=((1, 2), (2, 3)),
        )
        assert schedule
        for event in schedule.events:
            assert event.kind in FAULT_KINDS

    def test_link_family_requires_candidates(self):
        with pytest.raises(ConfigError, match="links="):
            FaultSchedule.seeded(1, cycles=5_000, kinds=("link",))

    def test_window_bounds_fault_cycles(self):
        schedule = FaultSchedule.seeded(
            9, cycles=100_000, faults=5, kinds=("fu",), window=(400, 500)
        )
        for event in schedule.events:
            assert 400 <= event.cycle < 500

    def test_negative_faults_rejected(self):
        with pytest.raises(ConfigError, match=">= 0"):
            FaultSchedule.seeded(1, cycles=1_000, faults=-1)
