"""Reconfiguration timeline recorder."""

from repro import (
    DistantILPController,
    NoExploreConfig,
    StaticController,
)
from repro.experiments.timeline import TimelineRecorder
from repro.pipeline.processor import ClusteredProcessor


class TestRecorder:
    def test_records_static_controller_initial_change(self, parallel_trace, config16):
        rec = TimelineRecorder(StaticController(4))
        proc = ClusteredProcessor(parallel_trace, config16, rec)
        proc.run()
        assert len(rec.events) == 1
        assert rec.events[0].clusters == 4
        assert proc.stats.committed == len(parallel_trace)

    def test_records_dynamic_events_in_order(self, phased_trace, config16):
        rec = TimelineRecorder(
            DistantILPController(NoExploreConfig.scaled(interval_length=500))
        )
        proc = ClusteredProcessor(phased_trace, config16, rec)
        proc.run()
        assert rec.events, "dynamic controller should reconfigure"
        commits = [e.committed for e in rec.events]
        assert commits == sorted(commits)
        # events reflect actual changes only
        clusters = [e.clusters for e in rec.events]
        assert all(a != b for a, b in zip(clusters, clusters[1:])) or len(clusters) == 1

    def test_forwards_dispatch_flag(self):
        from repro.core import FineGrainController

        rec = TimelineRecorder(FineGrainController())
        assert rec.needs_dispatch_events
