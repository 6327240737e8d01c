"""The cluster-ownership ledger: who may dispatch where, and since when.

A cluster is owned by one thread (exclusive dispatch rights), draining
(recently reclaimed: in-flight instructions finish naturally, but the
cluster is not grantable until ``drain_cycles`` have elapsed, the
multiprog analogue of the paper's reconfiguration drain), or free.

Granting a non-free cluster or reclaiming someone else's cluster raises
:class:`~repro.errors.SimulationError` immediately, with the cycle, the
cluster and both threads in the message.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from ..errors import SimulationError


class ClusterLedger:
    """Tracks per-cluster ownership with drain latencies."""

    def __init__(self, num_clusters: int) -> None:
        if num_clusters < 1:
            raise ValueError("num_clusters must be positive")
        self.num_clusters = num_clusters
        self._owner: List[Optional[int]] = [None] * num_clusters
        self._drain_until: List[int] = [0] * num_clusters

    def _check_cluster(self, cluster: int) -> None:
        if not 0 <= cluster < self.num_clusters:
            raise SimulationError(
                f"cluster {cluster} out of range [0, {self.num_clusters})"
            )

    def grant(self, cluster: int, thread: int, cycle: int) -> None:
        """Give ``thread`` exclusive dispatch rights to ``cluster``."""
        self._check_cluster(cluster)
        holder = self._owner[cluster]
        if holder is not None:
            raise SimulationError(
                f"double grant at cycle {cycle}: cluster {cluster} is "
                f"already owned by thread {holder}, cannot grant to "
                f"thread {thread}"
            )
        if cycle < self._drain_until[cluster]:
            raise SimulationError(
                f"grant of draining cluster {cluster} to thread {thread} "
                f"at cycle {cycle} (drains until "
                f"{self._drain_until[cluster]})"
            )
        self._owner[cluster] = thread

    def reclaim(
        self, cluster: int, thread: int, cycle: int, drain_cycles: int
    ) -> None:
        """Take ``cluster`` back from ``thread``; it drains, then frees."""
        self._check_cluster(cluster)
        holder = self._owner[cluster]
        if holder != thread:
            raise SimulationError(
                f"bad reclaim at cycle {cycle}: cluster {cluster} is "
                f"owned by {holder!r}, not thread {thread}"
            )
        self._owner[cluster] = None
        self._drain_until[cluster] = cycle + drain_cycles

    def owned_by(self, thread: int) -> Tuple[int, ...]:
        """The clusters ``thread`` owns, in ascending id order."""
        return tuple(
            cluster
            for cluster, holder in enumerate(self._owner)
            if holder == thread
        )

    def free_clusters(self, cycle: int) -> Tuple[int, ...]:
        return tuple(
            cluster
            for cluster in range(self.num_clusters)
            if self._owner[cluster] is None
            and cycle >= self._drain_until[cluster]
        )
