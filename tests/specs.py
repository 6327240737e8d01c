"""One fully populated spec per vocabulary, shared by the contract tests.

Every field is set away from its default, so a test that changes one
field at a time (cache key, ``to_run_spec``) or walks the whole value
(pickling, frozenness) reaches every field the spec carries.
"""

from repro.api import SimSpec
from repro.config import decentralized_config
from repro.experiments.sweep import ControllerSpec, RunSpec
from repro.multiprog import MultiProgSpec
from repro.resilience import FaultEvent, FaultSchedule

FAULTS = FaultSchedule(
    (
        FaultEvent(cycle=400, kind="link_sever", src=1, dst=2),
        FaultEvent(cycle=900, kind="cluster_kill", cluster=3),
    )
)

MULTIPROG = MultiProgSpec(
    workloads=("gzip", "swim"),
    trace_length=1_500,
    seed=11,
    topology="torus",
    arbiter="round-robin",
    clusters=4,
    epoch_cycles=250,
    drain_cycles=20,
    faults=FaultSchedule((FaultEvent(cycle=600, kind="cluster_kill", cluster=3),)),
    label="mix",
)

RUN_SPEC = RunSpec(
    profile="gzip",
    trace_length=3_000,
    seed=11,
    config=decentralized_config(8),
    controller=ControllerSpec.explore(),
    warmup=500,
    label="populated",
    steering=("mod-n", 3),
    record_granularity=500,
    max_instructions=2_500,
    multiprog=MULTIPROG,
    faults=FAULTS,
)

#: ``processor`` stays ``None``: an explicit config would hide
#: ``topology`` and ``clusters``
SIM_SPEC = SimSpec(
    workload="gzip",
    max_instructions=2_500,
    seed=11,
    topology="grid",
    reconfig_policy="explore",
    clusters=8,
    trace_length=3_000,
    warmup=500,
    steering=("mod-n", 3),
    faults=FAULTS,
    label="populated",
)
