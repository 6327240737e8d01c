"""Benchmark definitions: micro per-subsystem + the fig3 macro workload.

All benchmarks are deterministic (fixed seeds, fixed workloads) so that
run-to-run variation comes only from the machine, and the committed
``BENCH_sim_core.json`` numbers are comparable across commits on the same
hardware class.
"""

from __future__ import annotations

import random
import time
from typing import List, Tuple

from .harness import Benchmark

SUITE_NAME = "sim_core"

#: the fig3 static-16 macro workload: one distant-ILP, one branchy-integer,
#: one in-between profile (the shapes that exercise different hot paths)
MACRO_PROFILES = ("swim", "gzip", "vpr")
MACRO_TRACE_LENGTH = 30_000


# ----------------------------------------------------------------------
# macro: the full cycle loop on the Figure 3 static-16 workload.
# Traces are pregenerated OUTSIDE the timed window: the metric is simulator
# core throughput (simulated cycles per wall second), not trace generation.


def _pregenerate(profile: str, length: int, seed: int = 7):
    from repro.workloads import generate_trace, get_profile

    return generate_trace(get_profile(profile), length, seed)


def _bench_fig3_static16() -> Tuple[float, float]:
    """Simulated cycles per wall second on the acceptance workload."""
    from repro.api import simulate

    traces = [_pregenerate(p, MACRO_TRACE_LENGTH) for p in MACRO_PROFILES]
    total_cycles = 0
    t0 = time.perf_counter()
    for trace in traces:
        result = simulate(trace, reconfig_policy="static-16")
        total_cycles += result.stats.cycles
    return float(total_cycles), time.perf_counter() - t0


def _bench_dynamic_explore() -> Tuple[float, float]:
    """Cycles/sec with the interval-explore controller reconfiguring."""
    from repro.api import simulate

    trace = _pregenerate("swim", 20_000)
    t0 = time.perf_counter()
    result = simulate(trace, reconfig_policy="explore")
    return float(result.stats.cycles), time.perf_counter() - t0


def _bench_decentralized() -> Tuple[float, float]:
    """Cycles/sec on the decentralized-cache machine (LSQ broadcast path)."""
    from repro.api import simulate

    trace = _pregenerate("gzip", 15_000)
    t0 = time.perf_counter()
    result = simulate(trace, topology="decentralized")
    return float(result.stats.cycles), time.perf_counter() - t0


# ----------------------------------------------------------------------
# micro: steering


def _bench_steering_choose() -> Tuple[float, float]:
    """Raw ProducerSteering.choose throughput on a half-loaded machine."""
    from repro.clusters.cluster import Cluster
    from repro.clusters.criticality import CriticalityPredictor
    from repro.clusters.steering import ProducerSteering
    from repro.config import ClusterConfig
    from repro.workloads.instruction import Instr, OpClass

    rng = random.Random(42)
    clusters = [Cluster(k, ClusterConfig()) for k in range(16)]
    # uneven occupancy so every branch of the heuristic runs
    for k, cluster in enumerate(clusters):
        for _ in range(k % 8):
            cluster.allocate(object(), OpClass.INT_ALU, True)
    steering = ProducerSteering(clusters, CriticalityPredictor())
    instrs = [
        Instr(index=i, pc=0x1000 + 4 * (i % 64), op=OpClass.INT_ALU,
              src1=i - 1 if i else -1, src2=i - 2 if i > 1 else -1)
        for i in range(512)
    ]
    producer_sets = [
        [(0, rng.randrange(16))],
        [(0, rng.randrange(16)), (1, rng.randrange(16))],
        [],
    ]
    n = 60_000
    t0 = time.perf_counter()
    for i in range(n):
        steering.choose(instrs[i % 512], producer_sets[i % 3], 16, None)
    return float(n), time.perf_counter() - t0


# ----------------------------------------------------------------------
# micro: interconnect


def _bench_network_transfer() -> Tuple[float, float]:
    """Contended ring transfers scheduled per second."""
    from repro.config import InterconnectConfig
    from repro.interconnect.network import Network

    rng = random.Random(7)
    network = Network(InterconnectConfig(), 16)
    pairs = [(rng.randrange(16), rng.randrange(16)) for _ in range(1024)]
    n = 100_000
    t0 = time.perf_counter()
    for i in range(n):
        src, dst = pairs[i % 1024]
        network.transfer(src, dst, i, kind="register")
    return float(n), time.perf_counter() - t0


# ----------------------------------------------------------------------
# micro: LSQ disambiguation


def _bench_lsq_probe() -> Tuple[float, float]:
    """Load scheduling (allocate/address/probe/release) ops per second."""
    from repro.memory.lsq import CentralizedLSQ, MemAccess

    rng = random.Random(11)
    n = 30_000
    t0 = time.perf_counter()
    lsq = CentralizedLSQ(240)
    index = 0
    live: List[int] = []
    for _ in range(n):
        is_store = rng.random() < 0.4
        access = MemAccess(index, index % 16, rng.randrange(4096) * 4, is_store)
        lsq.allocate(access)
        live.append(index)
        if is_store:
            lsq.store_address_ready(index, index + 2)
        else:
            lsq.load_address_ready(index, index + 2)
            for load in lsq.schedulable_loads():
                lsq.probe_constraints(load)
        index += 1
        while len(live) > 200:
            lsq.release(live.pop(0))
    return float(n), time.perf_counter() - t0


def build_suite() -> List[Benchmark]:
    return [
        Benchmark("fig3_static16", "macro", "cycles/sec", _bench_fig3_static16),
        Benchmark("dynamic_explore", "macro", "cycles/sec", _bench_dynamic_explore),
        Benchmark("decentralized_cache", "macro", "cycles/sec", _bench_decentralized),
        Benchmark("steering_choose", "micro", "ops/sec", _bench_steering_choose),
        Benchmark("network_transfer", "micro", "ops/sec", _bench_network_transfer),
        Benchmark("lsq_probe", "micro", "ops/sec", _bench_lsq_probe),
    ]
