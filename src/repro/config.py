"""Processor, cache, and interconnect configuration.

The defaults reproduce Table 1 and Table 2 of the paper:

* Table 1 — front-end, window, and per-cluster resources of the 16-cluster
  wire-delay-limited processor (Simplescalar-derived model).
* Table 2 — the centralized (32KB, 4-way word-interleaved, 6-cycle) and
  decentralized (16KB single-ported 4-cycle bank per cluster) L1 caches.

Everything is a plain frozen dataclass so configurations can be shared,
hashed, and swept without aliasing surprises.
"""

from __future__ import annotations

import dataclasses
import os
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, Optional, Tuple

from .errors import ConfigError

# ----------------------------------------------------------------------
# Environment access.
#
# This module is the only place allowed to touch os.environ: ad-hoc
# environment reads are invisible configuration, and tests/test_config.py
# fails on them everywhere else.  Callers document their switch with a
# module constant and read it through these helpers.

#: values meaning "off" for boolean environment switches
_FALSE_VALUES = ("", "0", "false", "no", "off")


def env_text(name: str, default: str = "") -> str:
    """The raw value of environment switch ``name`` (``default`` if unset)."""
    return os.environ.get(name, default)


def env_flag(name: str) -> bool:
    """Boolean environment switch: set to anything but ``0/false/no/off``."""
    return env_text(name).lower() not in _FALSE_VALUES


def env_int(name: str, default: Optional[int] = None) -> Optional[int]:
    """Integer environment switch (``default`` when unset or malformed)."""
    text = env_text(name).strip()
    if not text:
        return default
    try:
        return int(text)
    except ValueError:
        return default


def env_float(name: str, default: Optional[float] = None) -> Optional[float]:
    """Float environment switch (``default`` when unset or malformed)."""
    text = env_text(name).strip()
    if not text:
        return default
    try:
        return float(text)
    except ValueError:
        return default


#: Canonical registry of every environment switch the package reads, in
#: one place (see docs/SWEEPS.md "Knobs" for the user-facing table).
#: Key -> (reader, purpose).
ENV_SWITCHES = {
    "REPRO_CACHE_DIR": ("env_text", "sweep result-cache directory"),
    "REPRO_JOBS": ("env_int", "default worker count for default_jobs()"),
    "REPRO_TRACE_SCALE": ("env_float", "multiplies benchmark trace lengths"),
    "REPRO_CHECK_INVARIANTS": ("env_flag", "sampled simulator invariant checks"),
}

# Execution latencies (cycles), patterned on Simplescalar/Alpha 21264.
INT_ALU_LATENCY = 1
INT_MUL_LATENCY = 7
INT_DIV_LATENCY = 12
FP_ALU_LATENCY = 4
FP_MUL_LATENCY = 4
FP_DIV_LATENCY = 12
BRANCH_LATENCY = 1
ADDRESS_GEN_LATENCY = 1


@dataclass(frozen=True)
class FrontEndConfig:
    """Fetch/decode/rename front-end parameters (Table 1)."""

    fetch_width: int = 8
    fetch_queue_size: int = 64
    max_basic_blocks_per_fetch: int = 2
    dispatch_width: int = 16
    commit_width: int = 16
    # The paper quotes "at least 12 cycles" of branch mispredict penalty;
    # we model it as the depth of the front-end pipeline between fetch and
    # dispatch, plus the (variable) hop latency from the resolving cluster.
    pipeline_depth: int = 12
    # Combining branch predictor (bimodal + 2-level) sizes.
    bimodal_size: int = 2048
    level1_size: int = 1024
    history_bits: int = 10
    level2_size: int = 4096
    chooser_size: int = 4096
    btb_sets: int = 2048
    btb_assoc: int = 2
    ras_size: int = 32


@dataclass(frozen=True)
class ClusterConfig:
    """Resources inside one cluster (Table 1: int and fp each)."""

    issue_queue_size: int = 15
    regfile_size: int = 30
    int_alus: int = 1
    int_muls: int = 1
    fp_alus: int = 1
    fp_muls: int = 1

    def __post_init__(self) -> None:
        # without one of these an instruction that needs it never issues,
        # and the run ends in a pipeline-wedged error a million cycles on
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            if value < 1:
                raise ConfigError(f"cluster.{f.name} must be >= 1, got {value}")


@dataclass(frozen=True)
class CacheConfig:
    """One cache level (sizes in bytes)."""

    size: int = 32 * 1024
    assoc: int = 2
    line_size: int = 32
    latency: int = 6
    banks: int = 4

    @property
    def num_sets(self) -> int:
        return self.size // (self.assoc * self.line_size)


@dataclass(frozen=True)
class MemoryConfig:
    """L1 organization plus the shared L2/DRAM backend (Tables 1 and 2)."""

    #: "centralized" or "decentralized"
    organization: str = "centralized"
    l1: CacheConfig = field(default_factory=CacheConfig)
    l2_latency: int = 25
    memory_latency: int = 160
    lsq_size_per_cluster: int = 15
    #: per-PC stride bank predictor entries (decentralized cache only)
    bank_predictor_entries: int = 1024


def centralized_cache() -> MemoryConfig:
    """Table 2, 'centralized' column: 32KB 2-way, 32B lines, 4 banks, 6 cyc."""
    return MemoryConfig(
        organization="centralized",
        l1=CacheConfig(size=32 * 1024, assoc=2, line_size=32, latency=6, banks=4),
    )


def decentralized_cache(num_clusters: int = 16) -> MemoryConfig:
    """Table 2, 'decentralized' column: a 16KB 2-way single-ported 4-cycle
    bank in each cluster, 8-byte interleaving across clusters."""
    return MemoryConfig(
        organization="decentralized",
        l1=CacheConfig(
            size=16 * 1024,
            assoc=2,
            line_size=8,
            latency=4,
            banks=1,
        ),
    )


@dataclass(frozen=True)
class InterconnectConfig:
    """Cluster-to-cluster network (Section 2.3).

    Every directed link carries one transfer per cycle; a transfer that
    finds its link booked waits for the next free cycle.
    """

    #: one of :data:`FABRICS`: "ring" (two unidirectional rings), "grid"
    #: (2-D array, XY routing), "torus" (the grid with wraparound links)
    #: or "ring-of-rings" (local rings bridged by a hub ring)
    topology: str = "ring"
    hop_latency: int = 1
    #: idealization switches used by the Section 4/5 communication breakdown
    free_memory_communication: bool = False
    free_register_communication: bool = False


@dataclass(frozen=True)
class ProcessorConfig:
    """Complete configuration of the clustered processor."""

    num_clusters: int = 16
    rob_size: int = 480
    front_end: FrontEndConfig = field(default_factory=FrontEndConfig)
    cluster: ClusterConfig = field(default_factory=ClusterConfig)
    memory: MemoryConfig = field(default_factory=centralized_cache)
    interconnect: InterconnectConfig = field(default_factory=InterconnectConfig)
    #: cluster that hosts the centralized LSQ/cache, the L2, and the front end
    home_cluster: int = 0

    def __post_init__(self) -> None:
        if self.num_clusters < 1:
            raise ConfigError(f"num_clusters must be >= 1, got {self.num_clusters}")
        if self.interconnect.topology not in FABRICS:
            raise ConfigError(f"unknown topology {self.interconnect.topology!r}")
        if self.memory.organization not in ("centralized", "decentralized"):
            raise ConfigError(
                f"unknown cache organization {self.memory.organization!r}"
            )
        if self.home_cluster >= self.num_clusters:
            raise ConfigError("home_cluster must name an existing cluster")

    def with_interconnect(self, interconnect: InterconnectConfig) -> "ProcessorConfig":
        return replace(self, interconnect=interconnect)

    def with_cluster_resources(self, cluster: ClusterConfig) -> "ProcessorConfig":
        return replace(self, cluster=cluster)


def default_config(num_clusters: int = 16) -> ProcessorConfig:
    """The paper's base 16-cluster model: ring interconnect, centralized
    cache, Table 1 resources."""
    return ProcessorConfig(num_clusters=num_clusters)


def grid_config(num_clusters: int = 16) -> ProcessorConfig:
    """Section 6 grid-interconnect variant."""
    return ProcessorConfig(
        num_clusters=num_clusters,
        interconnect=InterconnectConfig(topology="grid"),
    )


def torus_config(num_clusters: int = 16) -> ProcessorConfig:
    """Grid variant with wraparound links in both dimensions."""
    return ProcessorConfig(
        num_clusters=num_clusters,
        interconnect=InterconnectConfig(topology="torus"),
    )


def ring_of_rings_config(num_clusters: int = 16) -> ProcessorConfig:
    """Hierarchical fabric: local cluster rings bridged by a hub ring."""
    return ProcessorConfig(
        num_clusters=num_clusters,
        interconnect=InterconnectConfig(topology="ring-of-rings"),
    )


def decentralized_config(num_clusters: int = 16) -> ProcessorConfig:
    """Section 5 decentralized-cache variant."""
    return ProcessorConfig(
        num_clusters=num_clusters,
        memory=decentralized_cache(num_clusters),
    )


def monolithic_config() -> ProcessorConfig:
    """A monolithic processor with as many resources as the 16-cluster
    system and no inter-cluster communication (Table 3 baseline)."""
    memory = replace(centralized_cache(), lsq_size_per_cluster=15 * 16)
    return ProcessorConfig(
        num_clusters=1,
        cluster=ClusterConfig(
            issue_queue_size=15 * 16,
            regfile_size=30 * 16,
            int_alus=16,
            int_muls=16,
            fp_alus=16,
            fp_muls=16,
        ),
        memory=memory,
    )


#: topology name -> ProcessorConfig factory (takes the cluster count): the
#: one machine vocabulary of the facade, the exhibits and the co-scheduler
TOPOLOGIES: Dict[str, Callable[[int], ProcessorConfig]] = {
    "ring": default_config,
    "grid": grid_config,
    "torus": torus_config,
    "ring-of-rings": ring_of_rings_config,
    "decentralized": decentralized_config,
}

#: the interconnect fabrics: every topology but ``decentralized``, which is
#: the ring with a cache bank in each cluster instead of the central cache
FABRICS: Tuple[str, ...] = tuple(t for t in TOPOLOGIES if t != "decentralized")
