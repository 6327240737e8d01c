"""Inter-cluster interconnect: topologies and the contention-aware network."""

from .grid import GridTopology, TorusTopology
from .hierring import HierRingTopology
from .network import Network, build_topology
from .ring import RingTopology
from .topology import Topology

__all__ = [
    "GridTopology",
    "HierRingTopology",
    "Network",
    "RingTopology",
    "Topology",
    "TorusTopology",
    "build_topology",
]
