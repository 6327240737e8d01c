"""Statistics containers and interval tracking."""

import pytest

from repro.stats import IntervalTracker, IntervalWindow, SimStats, merge_records


class TestSimStats:
    def test_ipc(self):
        s = SimStats(cycles=100, committed=250)
        assert s.ipc == 2.5

    def test_ipc_zero_cycles(self):
        assert SimStats().ipc == 0.0

    def test_mispredict_interval(self):
        s = SimStats(committed=1000, mispredicts=10)
        assert s.mispredict_interval == 100
        assert SimStats(committed=100).mispredict_interval == float("inf")

    def test_branch_accuracy(self):
        s = SimStats(branches=100, mispredicts=5)
        assert s.branch_accuracy == 0.95
        assert SimStats().branch_accuracy == 1.0

    def test_l1_hit_rate(self):
        s = SimStats(l1_hits=90, l1_misses=10)
        assert s.l1_hit_rate == 0.9

    def test_avg_register_transfer_latency(self):
        s = SimStats(register_transfers=4, register_transfer_cycles=18)
        assert s.avg_register_transfer_latency == 4.5
        assert SimStats().avg_register_transfer_latency == 0.0

    def test_avg_active_clusters(self):
        s = SimStats(cycles=10, cluster_cycle_product=40)
        assert s.avg_active_clusters == 4.0

    def test_bank_prediction_accuracy(self):
        s = SimStats(bank_predictions=100, bank_mispredictions=20)
        assert s.bank_prediction_accuracy == 0.8

    def test_avg_owned_clusters(self):
        s = SimStats(cycles=10, owned_cluster_cycles=80)
        assert s.avg_owned_clusters == 8.0
        assert SimStats().avg_owned_clusters == 0.0

    def test_snapshot_keys(self):
        snap = SimStats(cycles=10, committed=20).snapshot()
        assert snap["ipc"] == 2.0
        assert "l1_hit_rate" in snap and "reconfigurations" in snap


class TestIntervalTracker:
    def test_deltas(self):
        s = SimStats()
        t = IntervalTracker(s)
        s.committed += 100
        s.cycles += 50
        s.branches += 10
        s.memrefs += 30
        s.distant_commits += 5
        w = t.since_last()
        assert (w.committed, w.cycles, w.branches, w.memrefs, w.distant_commits) == (
            100, 50, 10, 30, 5,
        )
        assert w.ipc == 2.0

    def test_consecutive_windows_independent(self):
        s = SimStats()
        t = IntervalTracker(s)
        s.committed += 100
        s.cycles += 100
        first = t.since_last()
        s.committed += 60
        s.cycles += 20
        w = t.since_last()
        assert w.committed == 60 and w.cycles == 20
        # a recording keeps every window, so none may be reused
        assert first is not w and first.committed == 100


class TestIntervalRecord:
    """A recording keeps one IntervalWindow per interval."""

    def test_ipc(self):
        assert IntervalWindow(100, 50, 1, 2).ipc == 2.0
        assert IntervalWindow(100, 0, 1, 2).ipc == 0.0

    def test_merge_drops_tail_remainder(self):
        records = [IntervalWindow(10, 5, 1, 2, 3)] * 7
        merged = merge_records(records, 3)
        assert merged == [IntervalWindow(30, 15, 3, 6, 9)] * 2  # 7 // 3


class TestMerge:
    def test_merge_adds_every_field(self):
        import dataclasses

        a = SimStats(**{f.name: 2 for f in dataclasses.fields(SimStats)})
        b = SimStats(**{f.name: 3 for f in dataclasses.fields(SimStats)})
        out = a.merge(b)
        assert out is a  # in place, returns self for chaining
        for f in dataclasses.fields(SimStats):
            assert getattr(a, f.name) == 5, f.name
        # the donor is untouched
        assert all(getattr(b, f.name) == 3 for f in dataclasses.fields(SimStats))

    def test_merge_keeps_fields_apart(self):
        """Distinct values per field: a merge that adds the donor's
        counter into the wrong field fails here, not just a dropped one."""
        import dataclasses

        a = SimStats()
        b = SimStats()
        for offset, f in enumerate(dataclasses.fields(SimStats)):
            setattr(a, f.name, 1000 + offset)
            setattr(b, f.name, 1 + offset)
        a.merge(b)
        for offset, f in enumerate(dataclasses.fields(SimStats)):
            assert getattr(a, f.name) == 1001 + 2 * offset, f.name

    def test_merged_classmethod_sums_runs(self):
        runs = [
            SimStats(cycles=100, committed=250, mispredicts=2),
            SimStats(cycles=50, committed=25, mispredicts=1),
        ]
        total = SimStats.merged(runs)
        assert total.cycles == 150
        assert total.committed == 275
        assert total.mispredicts == 3
        assert total.ipc == pytest.approx(275 / 150)

    def test_merged_empty_is_zero(self):
        total = SimStats.merged([])
        assert total.cycles == 0 and total.ipc == 0.0

    def test_merge_sums_arbitration_counters(self):
        # the multiprog fields must survive aggregation
        a = SimStats(arb_grants=3, arb_reclaims=1, owned_cluster_cycles=400)
        b = SimStats(arb_grants=2, arb_reclaims=4, owned_cluster_cycles=100)
        a.merge(b)
        assert a.arb_grants == 5
        assert a.arb_reclaims == 5
        assert a.owned_cluster_cycles == 500
        assert (b.arb_grants, b.arb_reclaims, b.owned_cluster_cycles) == (
            2, 4, 100,
        )

    def test_merge_is_associative(self):
        a = SimStats(cycles=10, committed=20)
        b = SimStats(cycles=30, committed=5)
        c = SimStats(cycles=7, committed=13)
        left = SimStats.merged([SimStats.merged([a, b]), c])
        right = SimStats.merged([a, SimStats.merged([b, c])])
        assert left.snapshot() == right.snapshot()
