"""Instruction steering heuristics (Section 2.1).

The primary heuristic is the state-of-the-art one the paper uses: steer an
instruction to the cluster producing most of its operands; break ties with
a criticality predictor; and fall back to the least-loaded cluster when the
issue-queue imbalance exceeds an (empirically tuned) threshold.  With the
decentralized cache, loads and stores are steered to the cluster predicted
to cache their data.

``ProducerSteering`` also carries an *owned* cluster mask — every cluster
by default.  The multiprogrammed co-scheduler narrows it per thread with
:meth:`ProducerSteering.set_owned`, so a thread dispatches only into the
clusters it currently owns while the selection logic stays the paper's.

``ModNSteering`` and ``FirstFitSteering`` are the two reference policies of
Baniasadi & Moshovos that the threshold mechanism approximates: Mod_N
minimizes load imbalance, First_Fit minimizes communication.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence, Tuple

from ..workloads.instruction import Instr, OpClass
from .cluster import _IS_FP, Cluster
from .criticality import CriticalityPredictor


class SteeringHeuristic:
    """Base interface: pick an *active, feasible* cluster or None (stall)."""

    def __init__(self, clusters: Sequence[Cluster]) -> None:
        self.clusters = clusters

    def _feasible(
        self, op: OpClass, needs_reg: bool, active: int
    ) -> List[int]:
        clusters = self.clusters
        return [
            k
            for k in range(active)
            if clusters[k].steer_ok[op]
            and clusters[k].can_accept(op, needs_reg)
        ]

    def choose(
        self,
        instr: Instr,
        producer_clusters: Sequence[Tuple[int, int]],
        active: int,
        preferred: Optional[int] = None,
    ) -> Optional[int]:
        """Pick the destination cluster for ``instr``.

        Args:
            instr: the instruction being renamed.
            producer_clusters: (operand_position, cluster) for each source
                operand whose producer is still in flight.
            active: number of currently active clusters (0..active-1).
            preferred: cache-bank hint for loads/stores (decentralized).
        """
        raise NotImplementedError


class ProducerSteering(SteeringHeuristic):
    """The paper's heuristic: producer-preference + criticality tiebreak +
    load-imbalance threshold (+ bank preference for memory ops), over the
    owned clusters inside the active window."""

    def __init__(
        self,
        clusters: Sequence[Cluster],
        criticality: Optional[CriticalityPredictor] = None,
        imbalance_threshold: int = 4,
    ) -> None:
        super().__init__(clusters)
        self.criticality = criticality or CriticalityPredictor()
        self.imbalance_threshold = imbalance_threshold
        self.set_owned(range(len(clusters)))

    def set_owned(self, owned: Iterable[int]) -> None:
        """Restrict dispatch to the ``owned`` cluster ids.

        Clusters leaving the mask drain their in-flight work naturally,
        exactly like the processor's own prefix deactivation.
        """
        #: ascending cluster ids this heuristic may steer into
        self.owned: Tuple[int, ...] = tuple(sorted(owned))
        #: ``(id, cluster)`` pairs of :attr:`owned`, the feasibility walk
        #: (the fused cycle loop walks the same pairs)
        self._walk = tuple((k, self.clusters[k]) for k in self.owned)

    def choose(
        self,
        instr: Instr,
        producer_clusters: Sequence[Tuple[int, int]],
        active: int,
        preferred: Optional[int] = None,
    ) -> Optional[int]:
        # hot per-dispatch probe of every owned active cluster: capacity
        # checks are inlined against the cluster occupancy counters
        # instead of going through can_accept; steer_ok folds liveness +
        # FU faults into one tuple lookup
        clusters = self.clusters
        needs_reg = instr.has_dest
        op = instr.op
        feasible: List[int] = []
        append = feasible.append
        if _IS_FP[op]:
            for k, c in self._walk:
                if k >= active:
                    break
                if (
                    c.steer_ok[op]
                    and c._fp_iq < c._iq_cap
                    and (not needs_reg or c._fp_regs < c._rf_cap)
                ):
                    append(k)
        else:
            for k, c in self._walk:
                if k >= active:
                    break
                if (
                    c.steer_ok[op]
                    and c._int_iq < c._iq_cap
                    and (not needs_reg or c._int_regs < c._rf_cap)
                ):
                    append(k)
        if not feasible:
            return None

        # 1. decentralized cache: favour the predicted bank cluster
        if preferred is not None and preferred in feasible:
            return preferred

        # 2. producer preference (at most two register operands, so the
        # count/tie logic reduces to three cases)
        candidate: Optional[int] = None
        usable = [pc for pc in producer_clusters if pc[1] in feasible]
        n_usable = len(usable)
        if n_usable == 1:
            candidate = usable[0][1]
        elif n_usable == 2:
            pos0, c0 = usable[0]
            pos1, c1 = usable[1]
            if c0 == c1:
                candidate = c0
            else:
                # tie: trust the criticality predictor's operand choice
                crit = self.criticality.predict_critical_operand(instr.pc)
                candidate = c1 if pos1 == crit and pos0 != crit else c0

        # 3. load-imbalance override / no-producer fallback (first-seen
        # wins on occupancy ties, i.e. the lowest feasible cluster id)
        least = feasible[0]
        c = clusters[least]
        least_occ = c._int_iq + c._fp_iq
        for k in feasible:
            c = clusters[k]
            occ = c._int_iq + c._fp_iq
            if occ < least_occ:
                least = k
                least_occ = occ
        if candidate is None:
            return least
        c = clusters[candidate]
        if (c._int_iq + c._fp_iq) - least_occ > self.imbalance_threshold:
            return least
        return candidate


class ModNSteering(SteeringHeuristic):
    """Steer N consecutive instructions to a cluster, then move to the next
    (minimizes load imbalance at the cost of communication)."""

    def __init__(self, clusters: Sequence[Cluster], n: int = 3) -> None:
        super().__init__(clusters)
        if n < 1:
            raise ValueError("n must be positive")
        self.n = n
        self._count = 0
        self._current = 0

    def choose(
        self,
        instr: Instr,
        producer_clusters: Sequence[Tuple[int, int]],
        active: int,
        preferred: Optional[int] = None,
    ) -> Optional[int]:
        feasible = self._feasible(instr.op, instr.has_dest, active)
        if not feasible:
            return None
        if self._current >= active:
            self._current = 0
        if self._count >= self.n:
            self._count = 0
            self._current = (self._current + 1) % active
        for probe in range(active):
            k = (self._current + probe) % active
            if k in feasible:
                if k != self._current:
                    self._current = k
                    self._count = 0
                self._count += 1
                return k
        return None


class FirstFitSteering(SteeringHeuristic):
    """Fill one cluster before moving to its neighbour (minimizes
    communication at the cost of load imbalance)."""

    def choose(
        self,
        instr: Instr,
        producer_clusters: Sequence[Tuple[int, int]],
        active: int,
        preferred: Optional[int] = None,
    ) -> Optional[int]:
        feasible = self._feasible(instr.op, instr.has_dest, active)
        if not feasible:
            return None
        return feasible[0]
