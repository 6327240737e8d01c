"""Memory system facades: centralized and decentralized L1 organizations.

Both share an L2 (2MB, 8-way, 25 cycles, co-located with the home cluster)
backed by a 160-cycle memory (Table 1).  The processor talks to a
:class:`MemorySystem` through a narrow interface:

* ``preferred_cluster(instr)`` — steering hint (decentralized only: the
  cluster predicted to cache the data);
* ``can_dispatch`` / ``dispatch`` — LSQ allocation at rename;
* ``address_ready(instr, cycle)`` — the effective address was computed in
  the instruction's cluster; the memory system schedules communication,
  disambiguation, and cache access, and later reports load completions;
* ``drain_completions()`` — (instr_index, data_ready_cycle) pairs;
* ``commit(index, cycle)`` — retire the LSQ entry (stores write the cache);
* ``set_banks(banks, cycle)`` — reconfiguration/fault hook naming the
  dispatch-eligible bank clusters; the decentralized cache must flush
  (returns the stall in cycles).
* ``forget_before(horizon)`` — drop bank-port and L2-port bookings before
  the ROB head's dispatch cycle (see :mod:`repro.timing`).

Every L1 bank and the L2 has one port, booked one access per cycle on a
:class:`~repro.timing.SlotReserver` calendar.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..config import MemoryConfig, ProcessorConfig
from ..errors import ConfigError
from ..interconnect.network import Network
from ..stats import SimStats
from ..timing import SlotReserver
from ..workloads.instruction import Instr
from .bank_predictor import StrideBankPredictor
from .cache import SetAssocCache
from .distributed_lsq import DistributedLSQ
from .lsq import CentralizedLSQ, MemAccess

_L2_CONFIG_SIZE = 2 * 1024 * 1024
_L2_ASSOC = 8
_L2_LINE = 64
_FLUSH_FIXED_OVERHEAD = 8  # cycles to quiesce before a reconfiguration flush


class _SharedL2:
    """The unified L2 at the home cluster plus the memory behind it."""

    def __init__(self, config: MemoryConfig, stats: SimStats) -> None:
        from ..config import CacheConfig

        self.config = config
        self.stats = stats
        self.cache = SetAssocCache(
            CacheConfig(
                size=_L2_CONFIG_SIZE,
                assoc=_L2_ASSOC,
                line_size=_L2_LINE,
                latency=config.l2_latency,
                banks=1,
            ),
            name="L2",
        )
        self.port = SlotReserver(1)

    def access(self, addr: int, start: int, is_write: bool = False) -> int:
        """Returns the cycle data is available at the home cluster."""
        begin = self.port.reserve(0, start)
        result = self.cache.access(addr, is_write)
        if result.hit:
            self.stats.l2_hits += 1
            return begin + self.config.l2_latency
        self.stats.l2_misses += 1
        return begin + self.config.l2_latency + self.config.memory_latency

    def absorb_writebacks(self, count: int, start: int) -> int:
        """Flush traffic: the L2 port accepts one line per cycle; returns
        the cycle the flush completes."""
        finish = start
        for _ in range(count):
            finish = self.port.reserve(0, finish) + 1
        return finish


class MemorySystem:
    """Common interface; see module docstring."""

    def __init__(self, config: ProcessorConfig, network: Network, stats: SimStats) -> None:
        self.config = config
        self.network = network
        self.stats = stats
        self.home = config.home_cluster
        self.l2 = _SharedL2(config.memory, stats)
        self._completions: List[Tuple[int, int]] = []
        self._cluster_of: Dict[int, int] = {}
        self.active_clusters = config.num_clusters

    # -- steering hint -------------------------------------------------
    def preferred_cluster(self, instr: Instr) -> Optional[int]:
        return None

    # -- dispatch ------------------------------------------------------
    def can_dispatch(self, instr: Instr) -> bool:
        raise NotImplementedError

    def dispatch(self, instr: Instr, cluster: int, cycle: int) -> None:
        raise NotImplementedError

    def address_ready(self, instr: Instr, cycle: int) -> None:
        raise NotImplementedError

    def commit(self, instr: Instr, cycle: int) -> None:
        raise NotImplementedError

    def drain_completions(self) -> List[Tuple[int, int]]:
        done = self._completions
        self._completions = []
        return done

    def tick(self, cycle: int) -> None:
        """Per-cycle housekeeping (default: none)."""

    def set_banks(self, banks, cycle: int) -> int:
        """Remap the dispatch-eligible bank clusters; returns stall cycles.

        ``banks`` is an iterable of cluster ids (sorted, non-empty).  The
        centralized organization keeps all data at home, so only the
        count matters to it."""
        self.active_clusters = len(tuple(banks))
        return 0

    def forget_before(self, horizon: int) -> None:
        """Drop port bookings before ``horizon``: no later access starts
        earlier (see :mod:`repro.timing`)."""
        self.l2.port.forget_before(horizon)


class CentralizedMemory(MemorySystem):
    """Section 2.1: word-interleaved central cache + central LSQ at home."""

    def __init__(self, config: ProcessorConfig, network: Network, stats: SimStats) -> None:
        super().__init__(config, network, stats)
        if config.memory.organization != "centralized":
            raise ConfigError("CentralizedMemory needs a centralized MemoryConfig")
        l1 = config.memory.l1
        self.l1 = SetAssocCache(l1, name="L1")
        self.banks = SlotReserver(l1.banks)
        self.lsq = CentralizedLSQ(
            config.memory.lsq_size_per_cluster * config.num_clusters
        )

    def can_dispatch(self, instr: Instr) -> bool:
        return not self.lsq.full

    def dispatch(self, instr: Instr, cluster: int, cycle: int) -> None:
        self._cluster_of[instr.index] = cluster
        self.lsq.allocate(
            MemAccess(instr.index, cluster, instr.addr, instr.is_store)
        )

    def address_ready(self, instr: Instr, cycle: int) -> None:
        cluster = self._cluster_of[instr.index]
        arrival = self.network.transfer(cluster, self.home, cycle, kind="memory")
        if instr.is_store:
            self.lsq.store_address_ready(instr.index, arrival)
        else:
            self.lsq.load_address_ready(instr.index, arrival)
        for load in self.lsq.schedulable_loads():
            self._schedule_load(load)

    def _schedule_load(self, load: MemAccess) -> None:
        barrier, forward = self.lsq.probe_constraints(load)
        probe = max(load.addr_arrival or 0, barrier)
        l1cfg = self.config.memory.l1
        if forward:
            data_at_home = probe + 1  # LSQ forwarding
            self.stats.l1_hits += 1
        else:
            bank = (load.addr >> 2) % l1cfg.banks
            begin = self.banks.reserve(bank, probe)
            self.stats.bank_conflict_cycles += begin - probe
            result = self.l1.access(load.addr, is_write=False)
            if result.hit:
                self.stats.l1_hits += 1
                data_at_home = begin + l1cfg.latency
            else:
                self.stats.l1_misses += 1
                data_at_home = self.l2.access(load.addr, begin + l1cfg.latency)
        ready = self.network.transfer(self.home, load.cluster, data_at_home, kind="memory")
        self._completions.append((load.index, ready))

    def commit(self, instr: Instr, cycle: int) -> None:
        access = self.lsq.release(instr.index)
        self._cluster_of.pop(instr.index, None)
        if not access.is_store:
            return
        l1cfg = self.config.memory.l1
        bank = (access.addr >> 2) % l1cfg.banks
        begin = self.banks.reserve(bank, cycle)
        result = self.l1.access(access.addr, is_write=True)
        if result.hit:
            self.stats.l1_hits += 1
        else:
            self.stats.l1_misses += 1
            self.l2.access(access.addr, begin + l1cfg.latency, is_write=False)

    def forget_before(self, horizon: int) -> None:
        super().forget_before(horizon)
        self.banks.forget_before(horizon)


class DecentralizedMemory(MemorySystem):
    """Section 5: a word-interleaved bank per cluster, distributed LSQ,
    bank prediction, store-address broadcast, flush-on-reconfigure."""

    def __init__(self, config: ProcessorConfig, network: Network, stats: SimStats) -> None:
        super().__init__(config, network, stats)
        if config.memory.organization != "decentralized":
            raise ConfigError("DecentralizedMemory needs a decentralized MemoryConfig")
        l1 = config.memory.l1
        self.bank_caches = [
            SetAssocCache(l1, name=f"L1[{k}]") for k in range(config.num_clusters)
        ]
        self.ports = SlotReserver(config.num_clusters)
        self.lsq = DistributedLSQ(
            config.num_clusters, config.memory.lsq_size_per_cluster
        )
        self.predictor = StrideBankPredictor(
            entries=config.memory.bank_predictor_entries,
            max_banks=config.num_clusters,
        )
        #: per-in-flight-instruction (prediction, predictor token)
        self._pred_tokens: Dict[int, tuple] = {}
        #: byte interleave across banks (Table 2: 8-byte lines/banks)
        self.interleave = l1.line_size
        #: dispatch-eligible bank clusters, in id order.  Healthy machines
        #: use the prefix 0..active-1 (making ``banks[x % len]`` identical
        #: to the historical ``x % active``); after a cluster fault the
        #: list skips the dead clusters.
        self._banks = tuple(range(config.num_clusters))

    # -- mapping -------------------------------------------------------
    def bank_cluster(self, addr: int) -> int:
        banks = self._banks
        return banks[(addr // self.interleave) % len(banks)]

    def full_bank(self, addr: int) -> int:
        return (addr // self.interleave) % self.config.num_clusters

    def preferred_cluster(self, instr: Instr) -> Optional[int]:
        if not instr.is_mem:
            return None
        token = self._pred_tokens.get(instr.index)
        if token is None:
            predicted, tok = self.predictor.predict_speculative(instr.pc)
            self._pred_tokens[instr.index] = (predicted, tok)
        else:
            predicted = token[0]
        return self._banks[predicted % len(self._banks)]

    # -- dispatch ------------------------------------------------------
    def can_dispatch(self, instr: Instr) -> bool:
        if instr.is_store:
            return self.lsq.can_allocate_store(self._banks)
        # loads allocate where they are steered; be conservative and
        # require a free slot in the predicted cluster
        target = self.preferred_cluster(instr)
        return self.lsq.can_allocate_load(target if target is not None else 0)

    def dispatch(self, instr: Instr, cluster: int, cycle: int) -> None:
        self._cluster_of[instr.index] = cluster
        access = MemAccess(instr.index, cluster, instr.addr, instr.is_store)
        if instr.is_store:
            self.lsq.allocate_store(access, self._banks)
        else:
            self.lsq.allocate_load(access)

    # -- execution -----------------------------------------------------
    def address_ready(self, instr: Instr, cycle: int) -> None:
        cluster = self._cluster_of[instr.index]
        actual = self.bank_cluster(instr.addr)
        self.stats.bank_predictions += 1
        pending = self._pred_tokens.get(instr.index)
        if pending is not None:
            predicted, _token = pending
            if self._banks[predicted % len(self._banks)] != actual:
                self.stats.bank_mispredictions += 1
        elif cluster != actual:
            self.stats.bank_mispredictions += 1

        if instr.is_store:
            # broadcast the address to every active bank's LSQ slice
            # (a circulating ring broadcast, one link-traversal per link)
            all_arrivals = self.network.broadcast_arrivals(cluster, cycle, kind="memory")
            arrivals = {
                k: all_arrivals.get(k, cycle) for k in self._banks
            }
            self.stats.store_broadcasts += 1
            self.lsq.store_address_ready(instr.index, actual, arrivals)
        else:
            # a mis-directed load forwards its address to the right cluster
            arrival = (
                cycle
                if cluster == actual
                else self.network.transfer(cluster, actual, cycle, kind="memory")
            )
            self.lsq.load_address_ready(instr.index, arrival)
        for load in self.lsq.schedulable_loads():
            self._schedule_load(load)

    def _schedule_load(self, load: MemAccess) -> None:
        bank = self.bank_cluster(load.addr)
        barrier, forward = self.lsq.probe_constraints(load, bank)
        probe = max(load.addr_arrival or 0, barrier)
        l1cfg = self.config.memory.l1
        if forward:
            data_at_bank = probe + 1
            self.stats.l1_hits += 1
        else:
            begin = self.ports.reserve(bank, probe)
            self.stats.bank_conflict_cycles += begin - probe
            result = self.bank_caches[bank].access(load.addr, is_write=False)
            if result.hit:
                self.stats.l1_hits += 1
                data_at_bank = begin + l1cfg.latency
            else:
                self.stats.l1_misses += 1
                to_l2 = self.network.transfer(bank, self.home, begin + l1cfg.latency, kind="memory")
                at_home = self.l2.access(load.addr, to_l2)
                data_at_bank = self.network.transfer(self.home, bank, at_home, kind="memory")
        ready = self.network.transfer(bank, load.cluster, data_at_bank, kind="memory")
        self._completions.append((load.index, ready))

    def commit(self, instr: Instr, cycle: int) -> None:
        access = self.lsq.release(instr.index)
        self._cluster_of.pop(instr.index, None)
        # train the bank predictor in commit (program) order
        pending = self._pred_tokens.pop(instr.index, None)
        if pending is not None:
            self.predictor.resolve(pending[1], self.full_bank(access.addr))
        if not access.is_store:
            return
        bank = self.bank_cluster(access.addr)
        l1cfg = self.config.memory.l1
        begin = self.ports.reserve(bank, cycle)
        result = self.bank_caches[bank].access(access.addr, is_write=True)
        if result.hit:
            self.stats.l1_hits += 1
        else:
            self.stats.l1_misses += 1
            self.l2.access(access.addr, begin + l1cfg.latency, is_write=False)

    def tick(self, cycle: int) -> None:
        self.lsq.tick(cycle)

    def forget_before(self, horizon: int) -> None:
        super().forget_before(horizon)
        self.ports.forget_before(horizon)

    # -- reconfiguration / fault remap ---------------------------------
    def set_banks(self, banks, cycle: int) -> int:
        """Changing the bank set remaps data to physical lines, so the L1
        must be flushed to L2 (Section 5).  Returns the stall in cycles.

        The bank predictor is *not* flushed: the raw 16-wide prediction
        stays valid and is folded onto the current bank list at use."""
        banks = tuple(banks)
        if banks == self._banks:
            return 0
        self._banks = banks
        self.active_clusters = len(banks)
        writebacks = 0
        for cache in self.bank_caches:
            writebacks += cache.flush()
        finish = self.l2.absorb_writebacks(writebacks, cycle + _FLUSH_FIXED_OVERHEAD)
        stall = finish - cycle
        self.stats.cache_flushes += 1
        self.stats.flush_writebacks += writebacks
        self.stats.flush_stall_cycles += stall
        return stall


def build_memory(config: ProcessorConfig, network: Network, stats: SimStats) -> MemorySystem:
    """Factory selecting the L1 organization from the configuration."""
    if config.memory.organization == "centralized":
        return CentralizedMemory(config, network, stats)
    return DecentralizedMemory(config, network, stats)
