"""Link-level network model with contention.

Each directed link carries one transfer per cycle.  A transfer crosses its
route hop by hop; at each hop it waits for a free slot on the link (slots
are granted in request order — a next-free-cycle reservation per link,
which is the standard fast approximation) and then takes ``hop_latency``
cycles to traverse.

The two idealization switches reproduce the paper's communication-cost
breakdown experiments ("assuming zero inter-cluster communication cost for
loads and stores improved performance by 31%, ... for register-to-register
communication by 11%").
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..config import InterconnectConfig
from ..errors import ConfigError
from ..stats import SimStats
from ..timing import SlotReserver
from .grid import GridTopology, TorusTopology
from .hierring import HierRingTopology
from .ring import RingTopology
from .topology import Topology

#: fabric name -> topology class (``config.FABRICS`` names the same four)
_TOPOLOGY_CLASSES = {
    "ring": RingTopology,
    "grid": GridTopology,
    "torus": TorusTopology,
    "ring-of-rings": HierRingTopology,
}


def build_topology(config: InterconnectConfig, num_nodes: int) -> Topology:
    cls = _TOPOLOGY_CLASSES.get(config.topology)
    if cls is None:
        raise ConfigError(f"unknown topology {config.topology!r}")
    return cls(num_nodes)


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
        self._links = SlotReserver(self.topology.num_links)
        #: messages this network scheduled, maintained alongside the stats
        #: counters so the invariant checker can verify conservation (every
        #: scheduled message accounted exactly once in the statistics)
        self.messages_sent = 0
        # idealization switches, hoisted off the transfer hot path
        # (config is fixed for the life of the network)
        self._free_memory = config.free_memory_communication
        self._free_register = config.free_register_communication
        self._hop_latency = config.hop_latency
        #: link-fault state (see :mod:`repro.resilience`): directed link
        #: id -> degraded traversal latency (replaces ``hop_latency`` on
        #: that link); routes never change
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
        return bool(self._degraded_links)

    def _wire_links(self, src: int, dst: int) -> List[int]:
        """Both directed link ids of the physical wire between two nodes."""
        found = [
            link
            for link, ends in self.topology.link_endpoints().items()
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

    def _rebuild(self) -> None:
        """Re-derive the per-link latency table from the degraded links."""
        table = [self.config.hop_latency] * self.topology.num_links
        for link, latency in self._degraded_links.items():
            table[link] = latency
        self._link_latency = table

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

        arrival = start_cycle
        reserve = self._links.reserve
        table = self._link_latency
        if table is None:
            hop_latency = self._hop_latency
            for link in self.topology.route(src, dst):
                arrival = reserve(link, arrival) + hop_latency
        else:
            for link in self.topology.route(src, dst):
                arrival = reserve(link, arrival) + table[link]

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
        # the circulating fast path assumes uniform ring link latency; a
        # degraded link falls back to per-destination transfers
        if (
            isinstance(self.topology, RingTopology)
            and self._link_latency is None
            and n > 1
        ):
            paths = self._broadcast_paths.get(src)
            if paths is None:
                # one copy each way round the ring: the route to the node
                # n//2 hops on runs clockwise, the route to the node
                # (n-1)//2 hops back counter-clockwise (ties go clockwise)
                ends = self.topology.link_endpoints()
                paths = self._broadcast_paths[src] = tuple(
                    tuple(
                        (link, ends[link][1])
                        for link in self.topology.route(src, farthest)
                    )
                    for farthest in ((src + n // 2) % n, (src - (n - 1) // 2) % n)
                )
            # the two paths reach disjoint nodes (n//2 + (n-1)//2 = n-1),
            # so each node is written once, and each hop is one message
            hop = self._hop_latency
            reserve = self._links.reserve
            total = 0
            for path in paths:
                ready = start_cycle
                for link, node in path:
                    ready = reserve(link, ready) + hop
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
