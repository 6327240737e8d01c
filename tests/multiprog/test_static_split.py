"""The static split's home thread runs exactly as it would alone.

Under the ``static`` arbiter thread 0 owns the contiguous block of
clusters that holds the home cluster (the shared cache's port), and no
arbiter ever moves it.  Each thread has its own caches, queues and
contention model, so nothing another thread does reaches thread 0: it
must match a solo run of its own trace on a static machine of the same
size, counter for counter.  That is the no-interference property behind
``fig_multiprog``'s weighted speedup.  The other threads do not match a
solo run: their blocks sit hops away from the home cluster, and that
placement cost is what the dynamic arbiters compete on.
"""

import dataclasses

import pytest

from repro.config import FABRICS, TOPOLOGIES
from repro.core import StaticController
from repro.experiments.runner import run_trace
from repro.multiprog import MultiProgSpec, run_multiprog, thread_seed
from repro.stats import SimStats
from repro.workloads import generate_trace, get_profile

LENGTH = 4_000
MIXES = [("gzip", "swim"), ("crafty", "galgel", "parser", "djpeg")]

#: how clusters were restricted (a prefix mask against an owned set), not
#: timing: a solo static run counts its one initial reconfiguration and
#: the active-cluster product, a co-scheduled thread its owned clusters
RESTRICTION_FIELDS = {"reconfigurations", "cluster_cycle_product", "owned_cluster_cycles"}


@pytest.mark.parametrize("workloads", MIXES, ids="+".join)
@pytest.mark.parametrize("fabric", FABRICS)
def test_home_thread_matches_its_solo_run(fabric, workloads):
    spec = MultiProgSpec(workloads, trace_length=LENGTH, topology=fabric, arbiter="static")
    home = run_multiprog(spec).threads[0].stats
    trace = generate_trace(get_profile(workloads[0]), LENGTH, seed=thread_seed(spec.seed, 0))
    share = spec.clusters // len(workloads)
    solo = run_trace(
        trace, TOPOLOGIES[fabric](spec.clusters), StaticController(share), warmup=0
    ).stats
    differing = {
        f.name: (getattr(home, f.name), getattr(solo, f.name))
        for f in dataclasses.fields(SimStats)
        if f.name not in RESTRICTION_FIELDS
        and getattr(home, f.name) != getattr(solo, f.name)
    }
    assert differing == {}
    assert home.committed == LENGTH
