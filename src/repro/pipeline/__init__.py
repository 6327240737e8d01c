"""The out-of-order pipeline: ROB and the clustered processor."""

from .processor import ClusteredProcessor
from .rob import InFlight, ReorderBuffer

__all__ = [
    "ClusteredProcessor",
    "InFlight",
    "ReorderBuffer",
]
