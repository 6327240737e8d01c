"""Figure 4 algorithm: exploration, phase detection, interval doubling."""

from repro import simulate
from repro.core.interval_explore import ExploreConfig, IntervalExploreController
from repro.observability import MemoryTracer
from repro.resilience import FaultEvent, FaultSchedule

from .fakes import FakeProcessor, feed_interval


def _controller(**kw):
    defaults = dict(initial_interval=100, max_interval=800)
    defaults.update(kw)
    proc = FakeProcessor(16)
    ctrl = IntervalExploreController(ExploreConfig(**defaults))
    ctrl.attach(proc)
    return ctrl, proc


def _feed(ctrl, proc, ipc, n=1, **kw):
    for _ in range(n):
        feed_interval(ctrl, proc, ctrl.interval_length, ipc, **kw)


class TestExploration:
    def test_explores_all_candidates_in_order(self):
        ctrl, proc = _controller()
        _feed(ctrl, proc, ipc=1.0, n=1)  # unstable -> begins exploration at 2
        assert proc.active_clusters == 2
        _feed(ctrl, proc, ipc=1.0)
        assert proc.active_clusters == 4
        _feed(ctrl, proc, ipc=1.2)
        assert proc.active_clusters == 8
        _feed(ctrl, proc, ipc=1.4)
        assert proc.active_clusters == 16

    def test_picks_best_measured_config(self):
        ctrl, proc = _controller()
        _feed(ctrl, proc, ipc=1.0)          # start exploring (2)
        _feed(ctrl, proc, ipc=0.8)          # 2 clusters
        _feed(ctrl, proc, ipc=1.6)          # 4 clusters <- best
        _feed(ctrl, proc, ipc=1.2)          # 8 clusters
        _feed(ctrl, proc, ipc=1.1)          # 16 clusters
        assert proc.active_clusters == 4
        assert ctrl.choice_counts == {4: 1}

    def test_candidates_clamped_to_machine(self):
        proc = FakeProcessor(8)
        ctrl = IntervalExploreController(
            ExploreConfig(initial_interval=100, candidates=(2, 4, 8, 16))
        )
        ctrl.attach(proc)
        assert ctrl._candidates == (2, 4, 8)


class TestPhaseDetection:
    def _settle(self, ctrl, proc, ipc=1.0):
        _feed(ctrl, proc, ipc=ipc, n=5)  # unstable + 4 exploration intervals

    def test_stable_program_keeps_configuration(self):
        ctrl, proc = _controller()
        self._settle(ctrl, proc)
        chosen = proc.active_clusters
        _feed(ctrl, proc, ipc=1.0, n=20)
        assert proc.active_clusters == chosen
        assert ctrl.phase_changes == 0

    def test_branch_shift_triggers_reexploration(self):
        ctrl, proc = _controller()
        self._settle(ctrl, proc)
        _feed(ctrl, proc, ipc=1.0, branch_rate=0.25)  # big branch-count shift
        assert ctrl.phase_changes == 1
        _feed(ctrl, proc, ipc=1.0, branch_rate=0.25)
        assert proc.active_clusters == 2  # exploring again

    def test_single_ipc_blip_tolerated(self):
        """Figure 4's num_ipc_variations filter: isolated IPC noise must not
        trigger a phase change."""
        ctrl, proc = _controller()
        self._settle(ctrl, proc)
        _feed(ctrl, proc, ipc=2.5)  # one wild interval
        _feed(ctrl, proc, ipc=1.0, n=5)
        assert ctrl.phase_changes == 0

    def test_sustained_ipc_shift_triggers_phase_change(self):
        ctrl, proc = _controller(ipc_variation_threshold=3.0)
        self._settle(ctrl, proc)
        for _ in range(6):
            _feed(ctrl, proc, ipc=3.0)
        assert ctrl.phase_changes >= 1


class TestIntervalAdaptation:
    def test_instability_doubles_interval(self):
        ctrl, proc = _controller(instability_threshold=2.0, instability_increment=1.0)
        start = ctrl.interval_length
        # alternate branch rates every interval -> constant phase changes
        rate = 0.1
        for _ in range(12):
            _feed(ctrl, proc, ipc=1.0, branch_rate=rate)
            rate = 0.35 - rate
        assert ctrl.interval_length > start

    def test_discontinue_locks_most_popular(self):
        ctrl, proc = _controller(
            initial_interval=100,
            max_interval=200,
            instability_threshold=1.0,
            instability_increment=2.0,
        )
        rate = 0.1
        for _ in range(40):
            _feed(ctrl, proc, ipc=1.0, branch_rate=rate)
            rate = 0.35 - rate
            if ctrl.discontinued:
                break
        assert ctrl.discontinued
        locked = proc.active_clusters
        _feed(ctrl, proc, ipc=1.0, branch_rate=0.5, n=3)
        assert proc.active_clusters == locked  # no further reconfiguration


class TestScaledConfig:
    def test_scaled_defaults(self):
        cfg = ExploreConfig.scaled()
        assert cfg.initial_interval < 10_000
        assert cfg.max_interval < 1_000_000_000
        assert cfg.detect.ipc_tolerance > 0.10

    def test_paper_defaults(self):
        cfg = ExploreConfig()
        assert cfg.initial_interval == 10_000
        assert cfg.max_interval == 1_000_000_000
        assert cfg.candidates == (2, 4, 8, 16)
        assert cfg.ipc_variation_threshold == 5.0  # THRESH1
        assert cfg.instability_threshold == 5.0  # THRESH2


class TestUnderFaults:
    def test_samples_keyed_by_requested_count_after_a_kill(self):
        # with cluster 3 dead, a request for 4 (or 8) live clusters widens
        # the physical window to 5 (or 9); the samples and the decision
        # must still name the candidate counts the controller asked for
        tracer = MemoryTracer()
        simulate(
            "swim",
            trace_length=6_000,
            reconfig_policy="explore",
            faults=FaultSchedule(
                (FaultEvent(cycle=200, kind="cluster_kill", cluster=3),)
            ),
            trace=tracer,
        )
        samples = [e["clusters"] for e in tracer.events if e["kind"] == "explore_sample"]
        [decision] = [e for e in tracer.events if e["kind"] == "explore_decision"]
        assert samples == [2, 4, 8, 16]
        assert [count for count, _ in decision["explored"]] == [2, 4, 8, 16]
        assert decision["chosen"] in (2, 4, 8, 16)
