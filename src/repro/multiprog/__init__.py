"""Multiprogrammed co-scheduling: threads competing for clusters.

The paper's future-work section asks what happens when *multiple* threads
share the 16 clusters.  This package co-schedules 2-4 synthetic workloads
on one global clock, with cluster ownership managed by one of three
**cluster-allocation arbiters** (see :mod:`~repro.multiprog.arbiters`):

* ``static`` — equal contiguous partition, never rebalanced;
* ``round-robin`` — epoch-based reclaim/regrant that equalizes cluster
  counts and recycles the clusters of finished threads;
* ``comm-aware`` — round-robin, except that which cluster a grant hands
  out or a reclaim takes minimizes intra-thread hop distance (a
  contiguity-preserving allocator in the spirit of communication-aware
  supercomputer allocation).

Each thread is a full :class:`~repro.pipeline.processor.ClusteredProcessor`
over the shared physical fabric; ownership is enforced at dispatch by the
``owned`` mask of :class:`~repro.clusters.steering.ProducerSteering`, so a
thread's placement on the fabric (hop distances to the home cluster and
between its own clusters) is what the arbiters compete on.  Arbiter
decisions are emitted as ``arb_grant``/``arb_reclaim`` trace events, and
the conformance suite in ``tests/multiprog/`` runs every arbiter on every
fabric.

See ``docs/MULTIPROG.md`` for the model, the fairness metrics, and a
Perfetto walkthrough.
"""

from .arbiters import ARBITERS, ThreadView
from .ledger import ClusterLedger
from .scheduler import run_multiprog, thread_seed
from .spec import FABRICS, MultiProgResult, MultiProgSpec, ThreadResult

__all__ = [
    "ARBITERS",
    "ClusterLedger",
    "FABRICS",
    "MultiProgResult",
    "MultiProgSpec",
    "ThreadResult",
    "ThreadView",
    "run_multiprog",
    "thread_seed",
]
