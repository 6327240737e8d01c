"""Link-level network model with bandwidth contention.

Each directed link carries ``link_bandwidth`` transfers per cycle.  A
transfer crosses its route hop by hop; at each hop it waits for a free slot
on the link (slots are granted in request order — a monotone next-free-cycle
reservation per link, which is the standard fast approximation) and then
takes ``hop_latency`` cycles to traverse.

The two idealization switches reproduce the paper's communication-cost
breakdown experiments ("assuming zero inter-cluster communication cost for
loads and stores improved performance by 31%, ... for register-to-register
communication by 11%").
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set

from ..config import InterconnectConfig
from ..errors import ConfigError
from ..faults import scrambled_topology
from ..stats import SimStats
from ..timing import SlotReserver
from .degraded import DegradedTopology
from .grid import GridTopology
from .hierring import HierRingTopology
from .ring import RingTopology
from .topology import Topology
from .torus import TorusTopology


def build_topology(config: InterconnectConfig, num_nodes: int) -> Topology:
    if config.topology == "ring":
        topology: Topology = RingTopology(num_nodes)
    elif config.topology == "grid":
        topology = GridTopology(num_nodes)
    elif config.topology == "torus":
        topology = TorusTopology(num_nodes)
    elif config.topology == "ring-of-rings":
        topology = HierRingTopology(num_nodes)
    else:
        raise ConfigError(f"unknown topology {config.topology!r}")
    # chaos hook: a no-op dict lookup unless a FaultPlan armed
    # scramble_topology (see repro.faults)
    return scrambled_topology(topology)


class Network:
    """Schedules transfers between clusters over a :class:`Topology`."""

    def __init__(
        self,
        config: InterconnectConfig,
        num_nodes: int,
        stats: Optional[SimStats] = None,
    ) -> None:
        self.config = config
        self.topology = build_topology(config, num_nodes)
        self.stats = stats or SimStats()
        self._links = SlotReserver(
            self.topology.num_links, max(1, config.link_bandwidth)
        )
        #: messages this network scheduled, maintained alongside the stats
        #: counters so the invariant checker can verify conservation (every
        #: scheduled message accounted exactly once in the statistics)
        self.messages_sent = 0
        # idealization/contention switches, hoisted off the transfer hot
        # path (config is fixed for the life of the network)
        self._free_memory = config.free_memory_communication
        self._free_register = config.free_register_communication
        self._contended = config.model_contention
        self._hop_latency = config.hop_latency
        #: link-fault state (see :mod:`repro.resilience`): the healthy
        #: topology is kept; ``topology`` swaps to a rerouted
        #: :class:`DegradedTopology` view only while severs exist
        self._base_topology = self.topology
        self._dead_links: Set[int] = set()
        #: directed link id -> degraded traversal latency (replaces
        #: ``hop_latency`` on that link)
        self._degraded_links: Dict[int, int] = {}
        #: per-link latency table, or None while all links are healthy
        #: (the hot paths branch on this one reference)
        self._link_latency: Optional[List[int]] = None
        #: source node -> the clockwise and counter-clockwise paths of its
        #: ring broadcast, as ``(link, node reached)`` per hop
        self._broadcast_paths: Dict[int, tuple] = {}

    # -- link faults (driven by repro.resilience.FaultManager) ---------

    @property
    def is_degraded(self) -> bool:
        return bool(self._dead_links or self._degraded_links)

    def _wire_links(self, src: int, dst: int) -> List[int]:
        """Both directed link ids of the physical wire between two nodes."""
        found = [
            link
            for link, ends in self._base_topology.link_endpoints().items()
            if ends == (src, dst) or ends == (dst, src)
        ]
        return sorted(found)

    def require_link(self, src: int, dst: int) -> None:
        """Raise unless a physical link joins ``src`` and ``dst``."""
        if not self._wire_links(src, dst):
            raise ConfigError(
                f"no {self.config.topology} link joins clusters {src} and "
                f"{dst}; link faults must name physical neighbours"
            )

    def sever_link(self, src: int, dst: int) -> bool:
        """Remove the wire from routing; False if already severed."""
        links = self._wire_links(src, dst)
        if not links:
            raise ConfigError(f"no link joins clusters {src} and {dst}")
        if set(links) <= self._dead_links:
            return False
        self._dead_links.update(links)
        self._rebuild()
        return True

    def degrade_link(self, src: int, dst: int, factor: int) -> bool:
        """Multiply the wire's traversal latency; False if unchanged."""
        links = self._wire_links(src, dst)
        if not links:
            raise ConfigError(f"no link joins clusters {src} and {dst}")
        latency = self.config.hop_latency * factor
        changed = False
        for link in links:
            if self._degraded_links.get(link) != latency:
                self._degraded_links[link] = latency
                changed = True
        if changed:
            self._rebuild()
        return changed

    def restore_link(self, src: int, dst: int) -> bool:
        """Undo sever/degrade on the wire; False if it was healthy."""
        links = self._wire_links(src, dst)
        if not links:
            raise ConfigError(f"no link joins clusters {src} and {dst}")
        changed = False
        for link in links:
            if link in self._dead_links:
                self._dead_links.discard(link)
                changed = True
            if self._degraded_links.pop(link, None) is not None:
                changed = True
        if changed:
            self._rebuild()
        return changed

    def _rebuild(self) -> None:
        """Re-derive the routing view and latency table from fault state."""
        if self._dead_links:
            self.topology = DegradedTopology(
                self._base_topology, self._dead_links
            )
        else:
            self.topology = self._base_topology
        if self._degraded_links:
            table = [self.config.hop_latency] * self._base_topology.num_links
            for link, latency in self._degraded_links.items():
                table[link] = latency
            self._link_latency = table
        else:
            self._link_latency = None

    # -- latency -------------------------------------------------------

    def uncontended_latency(self, src: int, dst: int) -> int:
        table = self._link_latency
        if table is None:
            return self.topology.hops(src, dst) * self._hop_latency
        return sum(table[link] for link in self.topology.route(src, dst))

    def transfer(
        self, src: int, dst: int, start_cycle: int, kind: str = "register"
    ) -> int:
        """Schedule one transfer; returns the arrival cycle at ``dst``.

        ``kind`` is "register" or "memory" and selects both the statistics
        bucket and the idealization switch that may zero the cost.
        """
        if src == dst:
            return start_cycle
        memory_kind = kind == "memory"
        if memory_kind:
            if self._free_memory:
                return start_cycle
        elif self._free_register:
            return start_cycle

        if self._contended:
            ready = start_cycle
            reserve = self._links.reserve
            table = self._link_latency
            if table is None:
                hop_latency = self._hop_latency
                for link in self.topology.route(src, dst):
                    ready = reserve(link, ready) + hop_latency
            else:
                for link in self.topology.route(src, dst):
                    ready = reserve(link, ready) + table[link]
            arrival = ready
        else:
            arrival = start_cycle + self.uncontended_latency(src, dst)

        latency = arrival - start_cycle
        self.messages_sent += 1
        stats = self.stats
        if memory_kind:
            stats.memory_transfers += 1
            stats.memory_transfer_cycles += latency
        else:
            stats.register_transfers += 1
            stats.register_transfer_cycles += latency
        return arrival

    def broadcast_arrivals(
        self, src: int, start_cycle: int, kind: str = "memory"
    ) -> Dict[int, int]:
        """Send one message to every other cluster; returns per-node arrival.

        Used for the store-address broadcast of the decentralized LSQ
        (Section 5), which the paper notes increases interconnect traffic.
        On the ring the broadcast *circulates*: one copy travels clockwise
        and one counter-clockwise, each link forwarding the message once —
        not N-1 independent point-to-point transfers.  Other topologies fall
        back to per-destination transfers.
        """
        n = self.topology.num_nodes
        if kind == "memory" and self._free_memory:
            return {k: start_cycle for k in range(n)}
        arrivals = {src: start_cycle}
        # the circulating fast path assumes the intact ring with uniform
        # link latency; any link fault falls back to per-destination
        # transfers (a sever also swaps in DegradedTopology, failing the
        # isinstance check)
        if (
            isinstance(self.topology, RingTopology)
            and self._link_latency is None
            and n > 1
        ):
            paths = self._broadcast_paths.get(src)
            if paths is None:
                # link ids: clockwise = sending node, counter-clockwise = N + it
                paths = self._broadcast_paths[src] = (
                    tuple((k % n, (k + 1) % n) for k in range(src, src + n // 2)),
                    tuple(
                        (n + k % n, (k - 1) % n)
                        for k in range(src, src - (n - 1) // 2, -1)
                    ),
                )
            # the two paths reach disjoint nodes (n//2 + (n-1)//2 = n-1),
            # so each node is written once, and each hop is one message
            hop = self._hop_latency
            total = 0
            for path in paths:
                ready = start_cycle
                if self._contended:
                    reserve = self._links.reserve
                    for link, node in path:
                        ready = reserve(link, ready) + hop
                        arrivals[node] = ready
                        total += ready
                else:
                    for _link, node in path:
                        ready += hop
                        arrivals[node] = ready
                        total += ready
            sent = n - 1
            self.messages_sent += sent
            self.stats.memory_transfers += sent
            self.stats.memory_transfer_cycles += total - sent * start_cycle
            return arrivals
        for dst in range(n):
            if dst != src:
                arrivals[dst] = self.transfer(src, dst, start_cycle, kind)
        return arrivals

    def forget_before(self, horizon: int) -> None:
        """Drop link bookings before ``horizon`` (see :mod:`repro.timing`)."""
        self._links.forget_before(horizon)
