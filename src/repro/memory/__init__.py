"""Memory hierarchy: caches, LSQs, bank prediction, and the system facades."""

from .bank_predictor import StrideBankPredictor
from .cache import AccessResult, SetAssocCache
from .distributed_lsq import DistributedLSQ
from .hierarchy import (
    CentralizedMemory,
    DecentralizedMemory,
    MemorySystem,
    build_memory,
)
from .lsq import CentralizedLSQ, MemAccess

__all__ = [
    "AccessResult",
    "CentralizedLSQ",
    "CentralizedMemory",
    "DecentralizedMemory",
    "DistributedLSQ",
    "MemAccess",
    "MemorySystem",
    "SetAssocCache",
    "StrideBankPredictor",
    "build_memory",
]
