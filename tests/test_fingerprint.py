"""The fingerprint suite: tracing must never perturb the simulation.

Every topology x reconfiguration-policy combination is run twice — once
untraced, once with an aggressive tracer attached — and the full SimStats
must match bit-for-bit.  This pins the observability subsystem's core
contract (tracers are passive observers) across every controller code
path, including the ones that emit from dispatch and commit hot loops.

Each case's untraced SimStats is additionally pinned as a digest in
``golden_fingerprints.json``: any change to simulator timing on any
topology (including torus and ring-of-rings) fails here first.  The
multiprogrammed co-scheduler is pinned the same way, one digest over the
merged and per-thread statistics of each run, and so are three longer
decision runs that reach controller choices the 3,000-instruction gzip
keys never make.  After an intentional timing change, regenerate with::

    REPRO_REGEN_GOLDEN=1 PYTHONPATH=src python -m pytest \
        tests/test_fingerprint.py
"""

import dataclasses
import hashlib
import json
import os
import pathlib

import pytest

from repro import generate_trace, get_profile, simulate
from repro.multiprog import MultiProgSpec, run_multiprog
from repro.observability import MemoryTracer
from repro.resilience import FaultEvent, FaultSchedule

TOPOLOGIES = ("ring", "grid", "decentralized", "torus", "ring-of-rings")
POLICIES = ("none", "static-4", "explore", "no-explore", "finegrain")

#: faulted fingerprint cases: each scenario is pinned to one controller so
#: the faulted matrix stays bounded while still crossing every fault kind
#: with every topology.  Link endpoints (1, 2) / (2, 3) are neighbors on
#: all five fabrics.
FAULT_SCENARIOS = {
    "kill": (
        "explore",
        FaultSchedule((FaultEvent(cycle=900, kind="cluster_kill", cluster=5),)),
    ),
    "kill-3": (
        "no-explore",
        FaultSchedule((FaultEvent(cycle=800, kind="cluster_kill", cluster=3),)),
    ),
    "fu-disable": (
        "finegrain",
        FaultSchedule((
            FaultEvent(cycle=700, kind="fu_disable", cluster=2, unit="int_alu"),
            FaultEvent(cycle=1200, kind="fu_disable", cluster=6, unit="fp_alu"),
        )),
    ),
    "link-degrade": (
        "static-4",
        FaultSchedule((
            FaultEvent(cycle=600, kind="link_degrade", src=1, dst=2, factor=4),
        )),
    ),
    "degrade-2-3": (
        "none",
        FaultSchedule((FaultEvent(cycle=1000, kind="link_degrade", src=2, dst=3),)),
    ),
    "mixed": (
        "explore",
        FaultSchedule((
            FaultEvent(cycle=800, kind="cluster_kill", cluster=7),
            FaultEvent(cycle=900, kind="link_degrade", src=1, dst=2),
            FaultEvent(cycle=1000, kind="fu_disable", cluster=4, unit="fp_mul"),
        )),
    ),
}

#: multiprogrammed cases: two mixes x two fabrics x every arbiter
MULTIPROG_MIXES = (("gzip", "swim"), ("crafty", "galgel", "parser", "djpeg"))
MULTIPROG_FABRICS = ("torus", "grid")
MULTIPROG_ARBITERS = ("static", "round-robin", "comm-aware")

#: runs that reach what the keys above do not: an explore controller that
#: finishes exploring, no-explore entering its measurement phase, and the
#: subroutine controller; ``profile/trace length/policy`` on the ring, at
#: seed 13, pinned under ``decision/<run>``
DECISION_RUNS = ("swim/6000/explore", "swim/6000/no-explore", "gzip/3000/subroutine")

GOLDEN = pathlib.Path(__file__).with_name("golden_fingerprints.json")

_TRACE = generate_trace(get_profile("gzip"), 3_000, seed=13)


def fingerprint(stats):
    """A short stable digest of the full SimStats (order-independent)."""
    payload = json.dumps(dataclasses.asdict(stats), sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


@pytest.mark.parametrize("topology", TOPOLOGIES)
@pytest.mark.parametrize("policy", POLICIES)
def test_traced_run_is_bit_identical(topology, policy):
    kwargs = dict(topology=topology, reconfig_policy=policy, warmup=500)
    baseline = simulate(_TRACE, **kwargs)
    traced = simulate(_TRACE, trace=MemoryTracer(sample_period=100), **kwargs)
    assert dataclasses.asdict(traced.stats) == dataclasses.asdict(
        baseline.stats
    )
    assert traced.ipc == baseline.ipc
    assert traced.cycles == baseline.cycles
    assert traced.reconfigurations == baseline.reconfigurations

    _check_golden(f"{topology}/{policy}", fingerprint(baseline.stats))


@pytest.mark.parametrize("topology", TOPOLOGIES)
@pytest.mark.parametrize("scenario", sorted(FAULT_SCENARIOS))
def test_faulted_run_is_bit_identical(topology, scenario):
    """Fault injection must stay deterministic and tracer-transparent."""
    policy, schedule = FAULT_SCENARIOS[scenario]
    kwargs = dict(
        topology=topology, reconfig_policy=policy, warmup=500, faults=schedule
    )
    baseline = simulate(_TRACE, **kwargs)
    traced = simulate(_TRACE, trace=MemoryTracer(sample_period=100), **kwargs)
    assert dataclasses.asdict(traced.stats) == dataclasses.asdict(
        baseline.stats
    )
    assert traced.cycles == baseline.cycles
    assert baseline.stats.faults_injected == len(schedule)
    _check_golden(
        f"{topology}/{policy}+{scenario}", fingerprint(baseline.stats)
    )


def _multiprog_fingerprint(mix, topology, arbiter):
    result = run_multiprog(MultiProgSpec(
        mix, trace_length=1_500, seed=7, topology=topology, arbiter=arbiter,
        epoch_cycles=400,
    ))
    assert result.committed == 1_500 * len(mix)
    payload = json.dumps(
        [dataclasses.asdict(result.stats)]
        + [dataclasses.asdict(thread.stats) for thread in result.threads],
        sort_keys=True,
    )
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


@pytest.mark.parametrize("mix", MULTIPROG_MIXES, ids="+".join)
@pytest.mark.parametrize("topology", MULTIPROG_FABRICS)
@pytest.mark.parametrize("arbiter", MULTIPROG_ARBITERS)
def test_multiprog_run_matches_golden(mix, topology, arbiter):
    _check_golden(
        f"multiprog/{'+'.join(mix)}/{topology}/{arbiter}",
        _multiprog_fingerprint(mix, topology, arbiter),
    )


def _decision_fingerprint(run):
    profile, length, policy = run.split("/")
    trace = generate_trace(get_profile(profile), int(length), seed=13)
    return fingerprint(simulate(trace, reconfig_policy=policy, warmup=500).stats)


@pytest.mark.parametrize("run", DECISION_RUNS)
def test_decision_run_matches_golden(run):
    _check_golden(f"decision/{run}", _decision_fingerprint(run))


def golden_digest(key):
    """Recompute the untraced digest that ``golden_fingerprints.json``
    pins under ``key``."""
    if key.startswith("decision/"):
        return _decision_fingerprint(key[len("decision/"):])
    if key.startswith("multiprog/"):
        _, mix, topology, arbiter = key.split("/")
        return _multiprog_fingerprint(tuple(mix.split("+")), topology, arbiter)
    topology, run = key.split("/")
    policy, _, scenario = run.partition("+")
    faults = FAULT_SCENARIOS[scenario][1] if scenario else None
    result = simulate(
        _TRACE, topology=topology, reconfig_policy=policy, warmup=500,
        faults=faults,
    )
    return fingerprint(result.stats)


def _check_golden(key, digest):
    if os.environ.get("REPRO_REGEN_GOLDEN"):
        data = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
        data[key] = digest
        GOLDEN.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
        pytest.skip(f"regenerated fingerprint for {key}")
    expected = json.loads(GOLDEN.read_text())
    assert key in expected, (
        f"no golden fingerprint for {key}; regenerate with "
        "REPRO_REGEN_GOLDEN=1"
    )
    assert digest == expected[key], (
        f"simulation fingerprint changed for {key}; if the timing change "
        "is intentional, regenerate with REPRO_REGEN_GOLDEN=1"
    )
