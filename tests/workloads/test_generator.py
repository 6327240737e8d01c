"""Dynamic trace generation."""

import pytest

from repro.errors import WorkloadError
from repro.workloads.blocks import PhaseParams
from repro.workloads.generator import Profile, generate_trace
from repro.workloads.instruction import OpClass


def _profile(schedule="steady", phases=None, seg=1000):
    phases = phases or (PhaseParams(name="a"),)
    return Profile(name="p", phases=phases, schedule=schedule, segment_length=seg)


class TestProfileValidation:
    def test_no_phases_rejected(self):
        with pytest.raises(WorkloadError):
            Profile(name="p", phases=())

    def test_bad_schedule_rejected(self):
        with pytest.raises(WorkloadError):
            _profile(schedule="fractal")

    def test_bad_segment_rejected(self):
        with pytest.raises(WorkloadError):
            Profile(name="p", phases=(PhaseParams(),), segment_length=0)


class TestGeneration:
    def test_exact_length(self):
        t = generate_trace(_profile(), 5_000, seed=1)
        assert len(t) == 5_000

    def test_deterministic(self):
        a = generate_trace(_profile(), 3_000, seed=9)
        b = generate_trace(_profile(), 3_000, seed=9)
        assert all(
            (x.pc, x.op, x.src1, x.src2, x.addr, x.taken) ==
            (y.pc, y.op, y.src1, y.src2, y.addr, y.taken)
            for x, y in zip(a, b)
        )

    def test_seed_changes_trace(self):
        a = generate_trace(_profile(), 3_000, seed=1)
        b = generate_trace(_profile(), 3_000, seed=2)
        assert any(x.addr != y.addr or x.taken != y.taken for x, y in zip(a, b))

    def test_zero_length_rejected(self):
        with pytest.raises(WorkloadError):
            generate_trace(_profile(), 0)

    def test_dependences_point_backwards(self):
        t = generate_trace(_profile(), 4_000, seed=3)
        for i in t:
            assert i.src1 < i.index and i.src2 < i.index

    def test_dependences_reference_dest_producers(self):
        t = generate_trace(_profile(), 4_000, seed=3)
        for i in t:
            for s in (i.src1, i.src2):
                assert s < 0 or t[s].has_dest, f"instr {i.index} depends on non-producer {s}"

    def test_mix_roughly_matches_params(self):
        p = PhaseParams(name="m", body_size=30, frac_load=0.3, frac_store=0.1)
        t = generate_trace(_profile(phases=(p,)), 10_000, seed=4)
        loads = sum(1 for i in t if i.op is OpClass.LOAD) / len(t)
        stores = sum(1 for i in t if i.op is OpClass.STORE) / len(t)
        # per-build sampling variance on ~30 static slots is large
        assert 0.15 < loads < 0.45
        assert 0.02 < stores < 0.22


class TestBranchStructure:
    def test_branch_targets_present_when_taken(self):
        t = generate_trace(_profile(), 5_000, seed=5)
        for i in t:
            if i.is_branch and i.taken:
                assert i.target > 0

    def test_loop_branch_site_repeats(self):
        t = generate_trace(_profile(), 5_000, seed=5)
        pcs = {}
        for i in t:
            if i.is_branch:
                pcs[i.pc] = pcs.get(i.pc, 0) + 1
        assert max(pcs.values()) > 50  # the loop-back branch dominates

    def test_calls_and_returns_pair_up(self):
        p = PhaseParams(name="c", call_prob=0.5, callee_body=6)
        t = generate_trace(_profile(phases=(p,)), 8_000, seed=6)
        calls = [i for i in t if i.is_call]
        rets = [i for i in t if i.is_return]
        assert calls and len(calls) == len(rets)
        # the return target is the instruction after its call site
        for c, r in zip(calls, rets):
            assert r.target == c.pc + 4


class TestSerialChain:
    def test_high_cross_dep_builds_one_chain(self):
        p = PhaseParams(name="s", body_size=16, cross_iter_dep=0.9,
                        frac_load=0.0, frac_store=0.0, inner_branches=1,
                        within_dep=0.0, second_src_prob=0.0)
        t = generate_trace(_profile(phases=(p,)), 4_000, seed=7)
        # walk the longest src1 chain; it must span many iterations
        depth = {}
        best = 0
        for i in t:
            d = depth.get(i.src1, 0) + 1 if i.src1 >= 0 else 1
            depth[i.index] = d
            best = max(best, d)
        assert best > 200  # one recurrence threaded through the whole trace

    def test_zero_cross_dep_bounds_chains(self):
        p = PhaseParams(name="w", body_size=16, cross_iter_dep=0.0,
                        frac_load=0.0, frac_store=0.0, inner_branches=1,
                        chain_prob=0.5)
        t = generate_trace(_profile(phases=(p,)), 4_000, seed=7)
        depth = {}
        best = 0
        for i in t:
            srcs = [depth.get(s, 0) for s in (i.src1, i.src2) if s >= 0]
            d = (max(srcs) if srcs else 0) + 1
            depth[i.index] = d
            best = max(best, d)
        # only the 1-add-per-iteration induction chain is unbounded; count
        # iterations from the loop-back branch (the hottest branch site)
        from collections import Counter
        site_counts = Counter(i.pc for i in t if i.is_branch)
        iterations = max(site_counts.values())
        assert best <= iterations + p.body_size + 50


class TestSchedules:
    def _two_phase(self, schedule):
        a = PhaseParams(name="a", body_size=30, frac_fp=0.5)
        b = PhaseParams(name="b", body_size=12)
        return Profile(name="p", phases=(a, b), schedule=schedule,
                       segment_length=1_000, segment_jitter=0.0)

    def test_alternate_switches_phases(self):
        t = generate_trace(self._two_phase("alternate"), 6_000, seed=8)
        # phase A has FP work, phase B has none; both must appear
        fp = [i for i in t if i.is_fp]
        assert fp
        fp_fraction = len(fp) / len(t)
        assert 0.05 < fp_fraction < 0.45

    def test_steady_uses_single_phase(self):
        a = PhaseParams(name="a", frac_fp=0.5)
        b = PhaseParams(name="b")
        t = generate_trace(
            Profile(name="p", phases=(a, b), schedule="steady", segment_length=500),
            4_000, seed=8,
        )
        pcs = {i.pc >> 20 for i in t}
        assert len(pcs) == 1  # only phase 0's PC region

    def test_random_switches_phases(self):
        t = generate_trace(self._two_phase("random"), 8_000, seed=9)
        regions = {i.pc >> 20 for i in t}
        assert len(regions) == 2
