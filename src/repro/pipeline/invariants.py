"""Sampled runtime invariant checking for the clustered processor.

The :class:`~repro.errors.SimulationError` class existed from the start,
but almost nothing enforced it — a corrupted pipeline would happily commit
garbage statistics into the paper exhibits.  :class:`InvariantChecker`
closes that gap: every :data:`SAMPLE_PERIOD` cycles (and once at the end
of the run) it verifies the structural invariants the simulator's
correctness argument rests on, and raises :class:`SimulationError` with
cycle/instruction context when one fails:

* **ROB commit ordering** — entries sit in dispatch order, trace indices
  strictly increase toward the tail, and occupancy never exceeds the
  configured ROB size.
* **Cluster occupancy** — per-half issue-queue and register-file counters
  stay within ``[0, capacity]``, the issue-queue counters agree with the
  actual queue contents, and every allocated physical register maps to
  exactly one in-flight instruction with a destination (conservation).
* **Interconnect message conservation** — every message the network
  scheduled is accounted exactly once in the statistics, and accumulated
  transfer latency is at least ``transfers x hop_latency`` (a message
  cannot arrive faster than one uncontended hop).
* **Route-table integrity** (checked once, on the first sample) — every
  (src, dst) route the topology serves is a connected chain of real
  directed links: it starts at ``src``, each link's source is the previous
  link's destination (per ``Topology.link_endpoints``), and it ends at
  ``dst``.  This is what catches a miswired torus wrap-around or
  ring-of-rings hub table, as ``TestScrambledTopologyIsCaught`` in
  ``tests/interconnect/test_route_invariants.py`` proves.
* **Rate sanity** — ``committed <= issued <= dispatched``, IPC within
  ``(0, commit_width]``, never NaN, and active-cluster accounting within
  ``num_clusters x cycles``.  Under architectural faults
  (:mod:`repro.resilience`) the accounting is liveness-aware: the
  effective active count must equal the live clusters inside the dispatch
  window, so an *intentionally* disabled cluster never false-positives
  while a drifted fault remap still fails.

Architectural link faults change a link's latency, never a route, so
the one route walk per run covers faulted runs too.

Checking is pure observation: it reads state, never mutates it, so a run
with checking on is bit-identical to the same run with checking off.
The ``REPRO_CHECK_INVARIANTS`` environment variable turns it on (the test
suite sets it); the default is off so production sweeps pay nothing.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

from ..errors import SimulationError

if TYPE_CHECKING:  # pragma: no cover
    from .processor import ClusteredProcessor

#: environment switch: a processor built while it is set gets a checker
INVARIANTS_ENV = "REPRO_CHECK_INVARIANTS"

#: cycles between sampled checks, read when a checker is built
SAMPLE_PERIOD = 64


class InvariantChecker:
    """Sampled structural checks over one :class:`ClusteredProcessor`."""

    def __init__(self, processor: "ClusteredProcessor") -> None:
        self.processor = processor
        self.period = max(1, SAMPLE_PERIOD)
        self._next_check = self.period
        self.checks_run = 0
        self._topology_checked = False

    # ------------------------------------------------------------------
    def maybe_check(self) -> None:
        """Run the full check set if the sampling period has elapsed."""
        if self.processor.cycle >= self._next_check:
            self._next_check = self.processor.cycle + self.period
            self.check()

    def check(self) -> None:
        """Run every invariant check now (also called at end of run)."""
        self.checks_run += 1
        if not self._topology_checked:
            self._topology_checked = True
            self._check_topology()
        self._check_rob()
        self._check_clusters()
        self._check_network()
        self._check_rates()

    def _fail(self, what: str, detail: str) -> None:
        p = self.processor
        raise SimulationError(
            f"invariant violation [{what}] at cycle {p.cycle}, "
            f"{p.stats.committed} committed, trace {p.trace.name!r}: {detail}"
        )

    # ------------------------------------------------------------------
    def _check_rob(self) -> None:
        rob = self.processor.rob
        if len(rob) > rob.size:
            self._fail("rob", f"{len(rob)} entries exceed ROB size {rob.size}")
        last_dispatch = -1
        last_index = -1
        for rec in rob:
            if rec.dispatch_cycle < last_dispatch:
                self._fail(
                    "rob",
                    f"entry {rec.instr.index} dispatched at cycle "
                    f"{rec.dispatch_cycle}, after a cycle-{last_dispatch} entry "
                    "— commit order broken",
                )
            last_dispatch = rec.dispatch_cycle
            index = rec.instr.index
            if index <= last_index:
                self._fail(
                    "rob",
                    f"trace index {index} not younger than {last_index} "
                    "— commit order broken",
                )
            last_index = index

    def _check_clusters(self) -> None:
        p = self.processor
        total_regs = 0
        for cluster in p.clusters:
            for half, occupancy, capacity in cluster.occupancy_by_half():
                if not 0 <= occupancy <= capacity:
                    self._fail(
                        "cluster",
                        f"cluster {cluster.cid} {half} occupancy {occupancy} "
                        f"outside [0, {capacity}]",
                    )
            queued = sum(1 for r in cluster.issue_queue if r is not None)
            if queued != cluster.iq_occupancy:
                self._fail(
                    "cluster",
                    f"cluster {cluster.cid} issue-queue counter "
                    f"{cluster.iq_occupancy} != {queued} queued records",
                )
            total_regs += cluster.reg_occupancy
        live_dests = sum(1 for r in p._records.values() if r.instr.has_dest)
        if total_regs != live_dests:
            self._fail(
                "cluster",
                f"{total_regs} physical registers allocated for {live_dests} "
                "in-flight destinations — register leak",
            )

    def _check_topology(self) -> None:
        """Walk every route against the link-endpoint table (once per run).

        Routing tables are static, so this runs on the first sample only;
        it is the check that makes a broken torus/ring-of-rings wiring
        fail loudly instead of silently inventing shortcut latencies.
        """
        topology = self.processor.network.topology
        endpoints = topology.link_endpoints()
        for src in range(topology.num_nodes):
            for dst in range(topology.num_nodes):
                if src == dst:
                    continue
                route = list(topology.route(src, dst))
                at = src
                for link in route:
                    if link not in endpoints:
                        self._fail(
                            "topology",
                            f"route {src}->{dst} uses link {link} which is "
                            "not in the topology's link table",
                        )
                    head, tail = endpoints[link]
                    if head != at:
                        self._fail(
                            "topology",
                            f"route {src}->{dst} is not a connected chain: "
                            f"link {link} starts at {head}, expected {at}",
                        )
                    at = tail
                if at != dst:
                    self._fail(
                        "topology",
                        f"route {src}->{dst} ends at node {at}, not {dst}",
                    )

    def _check_network(self) -> None:
        p = self.processor
        s = p.stats
        accounted = s.register_transfers + s.memory_transfers
        if p.network.messages_sent != accounted:
            self._fail(
                "network",
                f"{p.network.messages_sent} messages scheduled but {accounted} "
                "accounted in statistics — message conservation broken",
            )
        hop = p.network.config.hop_latency
        if s.register_transfer_cycles < s.register_transfers * hop:
            self._fail(
                "network",
                f"{s.register_transfers} register transfers accumulated only "
                f"{s.register_transfer_cycles} latency cycles "
                f"(< 1 hop of {hop} each)",
            )
        if s.memory_transfer_cycles < s.memory_transfers * hop:
            self._fail(
                "network",
                f"{s.memory_transfers} memory transfers accumulated only "
                f"{s.memory_transfer_cycles} latency cycles "
                f"(< 1 hop of {hop} each)",
            )

    def _check_rates(self) -> None:
        p = self.processor
        s = p.stats
        if not s.committed <= s.issued <= s.dispatched:
            self._fail(
                "rates",
                f"committed {s.committed} <= issued {s.issued} <= "
                f"dispatched {s.dispatched} does not hold",
            )
        if s.cycles:
            ipc = s.committed / s.cycles
            width = p.config.front_end.commit_width
            if math.isnan(ipc) or ipc < 0 or ipc > width:
                self._fail(
                    "rates", f"IPC {ipc!r} outside sane bounds [0, {width}]"
                )
        limit = p.config.num_clusters * s.cycles
        if not 0 <= s.cluster_cycle_product <= limit:
            self._fail(
                "rates",
                f"cluster-cycle product {s.cluster_cycle_product} outside "
                f"[0, {limit}]",
            )
        # liveness-aware accounting: intentionally-disabled (fault-killed)
        # clusters must be excluded from the effective count — equality
        # holds on healthy machines too, where every cluster is live
        effective = getattr(p, "effective_active_clusters", None)
        if effective is not None:
            live = sum(
                1 for c in p.clusters[: p.active_clusters] if c.live
            )
            if effective != live:
                self._fail(
                    "rates",
                    f"effective active clusters {effective} != {live} live "
                    f"clusters inside the {p.active_clusters}-cluster "
                    "dispatch window — fault remap drifted",
                )
