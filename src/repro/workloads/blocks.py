"""Static program structure for the synthetic workload generator.

A phase of a synthetic benchmark is a loop: a sequence of instruction
*segments* separated by conditional-branch sites, closed by a loop-back
branch.  The static structure (PCs, op classes, branch sites, per-site
address streams) is fixed once per phase so that the branch predictor, BTB,
and bank predictor see realistic repeating patterns; the *dynamic* trace is
produced by walking this structure iteration by iteration
(:mod:`repro.workloads.generator`).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from typing import List, Optional

from .addresses import (
    AddressStream,
    HotColdStream,
    PointerChaseStream,
    StridedStream,
    WorkingSetStream,
)
from .instruction import OpClass


@dataclass
class StaticInstr:
    """One static instruction slot in a loop body."""

    slot: int  # unique within the body; keys cross-iteration dependences
    pc: int
    op: OpClass
    stream: Optional[AddressStream] = None  # loads/stores only


class BranchSite:
    """A static conditional-branch site with a fixed outcome process.

    Kinds:
        ``biased``  — taken with probability ``param`` (predictable when the
                      bias is strong).
        ``random``  — taken with probability ``param`` independently, meant
                      for data-dependent branches (unpredictable at 0.5).
        ``noisy``   — taken with probability ``param`` except that a
                      ``noise`` fraction of executions is a fair coin flip.
                      This is the workhorse: every site is learnable, and
                      the noise fraction directly sets the floor on the
                      misprediction rate (~ noise/2), so a benchmark's
                      mispredict interval calibrates deterministically
                      instead of depending on a per-site kind lottery.
        ``pattern`` — deterministic repeating pattern of period ``param``
                      (one not-taken per period), learnable by the two-level
                      predictor but not by the bimodal one.
    """

    KINDS = ("biased", "random", "noisy", "pattern")

    def __init__(
        self,
        pc: int,
        kind: str,
        param: float,
        rng: random.Random,
        noise: float = 0.0,
    ) -> None:
        if kind not in self.KINDS:
            raise ValueError(f"unknown branch kind {kind!r}")
        if not 0.0 <= noise <= 1.0:
            raise ValueError("noise must be a probability")
        self.pc = pc
        self.kind = kind
        self.param = param
        self.noise = noise
        self._rng = rng
        self._count = 0

    def next_outcome(self) -> bool:
        if self.kind == "pattern":
            period = max(2, int(self.param))
            taken = (self._count % period) != (period - 1)
            self._count += 1
            return taken
        if self.kind == "noisy" and self._rng.random() < self.noise:
            return self._rng.random() < 0.5
        return self._rng.random() < self.param


@dataclass
class PhaseParams:
    """Tunable knobs of one program phase.

    The important axis for the paper is ``cross_iter_dep``: the probability
    that a compute instruction depends on the same slot of the *previous*
    iteration.  At 0 the loop iterations are independent and the program has
    abundant *distant* ILP (it scales to 16 clusters); near 1 the loop is a
    serial recurrence and extra clusters only add communication cost.
    """

    name: str = "phase"
    body_size: int = 24
    frac_fp: float = 0.0
    frac_mul: float = 0.08
    frac_load: float = 0.25
    frac_store: float = 0.10
    cross_iter_dep: float = 0.0
    within_dep: float = 0.75
    second_src_prob: float = 0.35
    dep_window: int = 6
    #: probability an operand continues the most recent chain (deep, serial
    #: expression trees) rather than picking any recent producer (wide,
    #: parallel expression trees)
    chain_prob: float = 0.6
    inner_branches: int = 2
    random_branch_frac: float = 0.0
    biased_taken_prob: float = 0.88
    pattern_branch_frac: float = 0.0
    pattern_period: int = 4
    loop_taken_prob: float = 0.96
    call_prob: float = 0.0
    callee_body: int = 10
    mem_pattern: str = "strided"  # strided | random | hotcold | chase
    working_set: int = 16 * 1024
    stride: int = 4
    hot_prob: float = 0.9

    def __post_init__(self) -> None:
        if self.body_size < 2:
            raise ValueError("body_size must be >= 2")
        if not 0.0 <= self.cross_iter_dep <= 1.0:
            raise ValueError("cross_iter_dep must be a probability")
        if self.mem_pattern not in ("strided", "random", "hotcold", "chase"):
            raise ValueError(f"unknown mem_pattern {self.mem_pattern!r}")


def _make_stream(
    params: PhaseParams, base: int, rng: random.Random
) -> AddressStream:
    if params.mem_pattern == "strided":
        return StridedStream(base=base, stride=params.stride, extent=params.working_set)
    if params.mem_pattern == "random":
        return WorkingSetStream(base=base, size=params.working_set, rng=rng)
    if params.mem_pattern == "hotcold":
        hot = max(64, params.working_set // 16)
        return HotColdStream(
            base=base,
            hot_size=hot,
            cold_size=params.working_set,
            hot_prob=params.hot_prob,
            rng=rng,
        )
    nodes = max(1, params.working_set // 64)
    return PointerChaseStream(base=base, nodes=nodes, node_size=64, rng=rng)


@dataclass
class LoopBody:
    """The static structure of one phase: segments, branch sites, callee."""

    params: PhaseParams
    segments: List[List[StaticInstr]]
    branch_sites: List[BranchSite]  # branch_sites[i] follows segments[i]
    loop_branch: BranchSite
    callee: List[StaticInstr]
    call_pc: int
    return_pc: int
    pc_base: int


def build_loop_body(
    params: PhaseParams, pc_base: int, rng: random.Random, data_base: int
) -> LoopBody:
    """Materialize the static loop structure for one phase.

    PCs are assigned sequentially from ``pc_base`` (4 bytes apart).  The
    phase's ``working_set`` is its *total* data footprint: it is divided
    evenly among the static memory instructions, each of which walks its own
    region above ``data_base``.
    """
    n_segments = params.inner_branches + 1
    per_segment = max(1, params.body_size // n_segments)

    def _op_list(n: int) -> List[OpClass]:
        """Exactly-proportioned op mix, shuffled.

        Sampling each slot independently would make the number of memory
        sites — and with it the data footprint and cache behaviour — swing
        wildly across seeds; fixed counts keep every build of a profile
        statistically comparable.
        """
        loads = round(params.frac_load * n)
        stores = round(params.frac_store * n)
        compute = max(0, n - loads - stores)
        fp = round(params.frac_fp * compute)
        fp_mul = round(params.frac_mul * fp)
        int_mul = round(params.frac_mul * (compute - fp))
        ops = (
            [OpClass.LOAD] * loads
            + [OpClass.STORE] * stores
            + [OpClass.FP_MUL] * fp_mul
            + [OpClass.FP_ALU] * (fp - fp_mul)
            + [OpClass.INT_MUL] * int_mul
            + [OpClass.INT_ALU] * (compute - fp - int_mul)
        )
        rng.shuffle(ops)
        return ops

    body_ops = _op_list(n_segments * per_segment)
    segment_ops = [
        body_ops[i * per_segment : (i + 1) * per_segment] for i in range(n_segments)
    ]
    callee_ops = _op_list(params.callee_body)
    all_ops = body_ops + callee_ops

    # Loads in strided phases model stencils: groups of up to three sites
    # walk the *same* array at neighbouring offsets, sharing cache lines the
    # way a[i-1], a[i], a[i+1] do.  Each group (and each store site) gets
    # its own region; the phase working set is split across regions.
    _STENCIL_GROUP = 3
    if params.mem_pattern == "strided":
        n_load_sites = sum(1 for op in all_ops if op is OpClass.LOAD)
        n_store_sites = sum(1 for op in all_ops if op is OpClass.STORE)
        n_regions = -(-n_load_sites // _STENCIL_GROUP) + n_store_sites
    else:
        n_regions = sum(1 for op in all_ops if op in (OpClass.LOAD, OpClass.STORE))
    site_extent = max(256, params.working_set // max(1, n_regions))

    pc = pc_base
    slot = 0
    stream_region = data_base
    segments: List[List[StaticInstr]] = []
    branch_sites: List[BranchSite] = []
    stencil_state = {"base": -1, "members": _STENCIL_GROUP}

    def make_static(op: OpClass) -> StaticInstr:
        nonlocal pc, slot, stream_region
        stream = None
        if op in (OpClass.LOAD, OpClass.STORE):
            site_params = params if params.working_set == site_extent else replace(
                params, working_set=site_extent
            )
            if params.mem_pattern == "strided" and op is OpClass.LOAD:
                if stencil_state["members"] >= _STENCIL_GROUP:
                    stencil_state["base"] = stream_region
                    stencil_state["members"] = 0
                    stream_region += site_extent + 256
                offset = abs(params.stride) * stencil_state["members"]
                stencil_state["members"] += 1
                stream = StridedStream(
                    base=stencil_state["base"] + offset,
                    stride=params.stride,
                    extent=site_extent,
                )
            else:
                stream = _make_stream(site_params, stream_region, rng)
                stream_region += site_extent + 256
        instr = StaticInstr(slot=slot, pc=pc, op=op, stream=stream)
        pc += 4
        slot += 1
        return instr

    n_pattern_sites = int(round(params.pattern_branch_frac * params.inner_branches))
    for seg_idx in range(n_segments):
        seg = [make_static(op) for op in segment_ops[seg_idx]]
        segments.append(seg)
        if seg_idx < n_segments - 1:
            if seg_idx < n_pattern_sites:
                site = BranchSite(pc, "pattern", params.pattern_period, rng)
            else:
                site = BranchSite(
                    pc,
                    "noisy",
                    params.biased_taken_prob,
                    rng,
                    noise=params.random_branch_frac,
                )
            branch_sites.append(site)
            pc += 4

    call_pc = pc
    pc += 4
    callee_base = pc_base + 0x10000
    saved_pc = pc
    pc = callee_base
    callee = [make_static(op) for op in callee_ops]
    return_pc = pc
    pc = saved_pc

    loop_branch = BranchSite(pc, "biased", params.loop_taken_prob, rng)

    return LoopBody(
        params=params,
        segments=segments,
        branch_sites=branch_sites,
        loop_branch=loop_branch,
        callee=callee,
        call_pc=call_pc,
        return_pc=return_pc,
        pc_base=pc_base,
    )
