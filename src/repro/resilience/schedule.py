"""Declarative, deterministic architectural fault schedules.

A :class:`FaultSchedule` is a frozen, picklable value object: it travels
inside :class:`~repro.experiments.sweep.RunSpec` to worker processes,
participates in the result-cache key via its ``repr``, and is replayed
bit-identically on resume.  Faults are keyed to *simulated cycles only* —
wall-clock scheduling would break the determinism contract every other
subsystem rests on.

Event kinds (each permanent for the rest of the run):

``cluster_kill``
    Take a cluster out of the steerable set.  In-flight work in a killed
    cluster drains naturally (the advance-warning model: an ECC-threshold
    or thermal trip announces the failure before hard loss, exactly the
    window the paper's reconfiguration drain needs).
``fu_disable``
    Mark one functional-unit pool of a cluster stuck-at-disabled: the
    steering heuristics stop sending matching instructions there (already
    queued work still issues and drains).
``link_degrade``
    Address a directed interconnect link by its ``(src, dst)`` endpoint
    pair; both directions of the physical wire pay ``factor`` times the
    hop latency.  Routes never change.

The home cluster is fault-protected: it hosts the front end, the L2, and
the centralized LSQ, so killing it (or disabling its units) is not a
*degraded* machine but a dead one.  Schedules targeting it are rejected
at validation time.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Optional, Sequence, Tuple

from ..errors import ConfigError

#: every recognised fault-event kind
FAULT_KINDS = ("cluster_kill", "fu_disable", "link_degrade")

#: functional-unit pools a ``fu_disable`` event may target (the four pools
#: of :class:`~repro.clusters.functional_units.FunctionalUnits`)
FU_POOLS = ("int_alu", "int_mul", "fp_alu", "fp_mul")


@dataclass(frozen=True)
class FaultEvent:
    """One cycle-scheduled architectural fault (see module docstring)."""

    cycle: int
    kind: str
    #: target cluster (cluster_kill and fu_disable)
    cluster: int = -1
    #: directed link endpoints (link_degrade)
    src: int = -1
    dst: int = -1
    #: functional-unit pool (fu_disable)
    unit: str = ""
    #: latency multiplier (link_degrade only)
    factor: int = 2

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ConfigError(
                f"unknown fault kind {self.kind!r}; choose from {FAULT_KINDS}"
            )
        if self.cycle < 1:
            raise ConfigError(
                f"fault cycle must be >= 1, got {self.cycle} ({self.kind})"
            )
        if self.kind == "link_degrade":
            if self.src < 0 or self.dst < 0 or self.src == self.dst:
                raise ConfigError(
                    f"{self.kind} needs distinct link endpoints src/dst >= 0, "
                    f"got ({self.src}, {self.dst})"
                )
            if self.factor < 2:
                raise ConfigError(
                    f"link_degrade factor must be >= 2, got {self.factor}"
                )
        elif self.cluster < 0:
            raise ConfigError(f"{self.kind} needs a target cluster >= 0")
        if self.kind == "fu_disable" and self.unit not in FU_POOLS:
            raise ConfigError(
                f"{self.kind} needs unit in {FU_POOLS}, got {self.unit!r}"
            )

    def target_label(self) -> str:
        """Stable human-readable target for trace events."""
        if self.kind == "link_degrade":
            return f"link:{self.src}->{self.dst}"
        if self.kind == "fu_disable":
            return f"fu:{self.cluster}:{self.unit}"
        return f"cluster:{self.cluster}"


@dataclass(frozen=True)
class FaultSchedule:
    """An ordered set of :class:`FaultEvent` (stably sorted by cycle)."""

    events: Tuple[FaultEvent, ...] = field(default=())

    def __post_init__(self) -> None:
        events = tuple(self.events)
        for event in events:
            if not isinstance(event, FaultEvent):
                raise ConfigError(
                    f"FaultSchedule events must be FaultEvent, got "
                    f"{type(event).__name__}"
                )
        # stable sort: same-cycle events keep their declaration order,
        # which is the order the manager applies them in
        object.__setattr__(
            self, "events", tuple(sorted(events, key=lambda e: e.cycle))
        )

    def __bool__(self) -> bool:
        return bool(self.events)

    def __len__(self) -> int:
        return len(self.events)

    def validate_for(self, config) -> None:
        """Reject schedules that cannot apply to ``config``.

        The home cluster (front end, L2, centralized LSQ) is
        fault-protected, and every cluster index must exist.  Link
        endpoints are validated later against the actual topology by the
        :class:`~repro.resilience.manager.FaultManager`.
        """
        n = config.num_clusters
        home = config.home_cluster
        for event in self.events:
            if event.kind == "link_degrade":
                if event.src >= n or event.dst >= n:
                    raise ConfigError(
                        f"{event.kind} endpoints ({event.src}, {event.dst}) "
                        f"exceed the {n}-cluster fabric"
                    )
            elif event.cluster >= n:
                raise ConfigError(
                    f"{event.kind} targets cluster {event.cluster}, but "
                    f"the machine has {n} clusters"
                )
            elif event.cluster == home:
                raise ConfigError(
                    f"{event.kind} may not target the home cluster "
                    f"{home} (front end / L2 / centralized LSQ live "
                    "there; killing it is machine death, not "
                    "degradation)"
                )

    # -- generation ----------------------------------------------------
    @classmethod
    def seeded(
        cls,
        seed: int,
        *,
        cycles: int,
        num_clusters: int = 16,
        faults: int = 2,
        kinds: Sequence[str] = ("cluster", "fu"),
        home_cluster: int = 0,
        links: Sequence[Tuple[int, int]] = (),
        window: Optional[Tuple[int, int]] = None,
    ) -> "FaultSchedule":
        """A deterministic random schedule from ``random.Random(seed)``.

        ``kinds`` draws from ``"cluster"`` (kill), ``"fu"`` (pool
        disable), and ``"link"`` (degrade one of ``links`` to twice the
        hop latency; requires a non-empty ``links`` sequence of valid
        ``(src, dst)`` pairs for the topology the run uses).  Fault
        cycles land in ``window`` (default: the second quarter of
        ``[1, cycles]``).
        """
        if faults < 0:
            raise ConfigError(f"faults must be >= 0, got {faults}")
        if "link" in kinds and not links:
            raise ConfigError(
                "seeded link faults need candidate (src, dst) pairs via "
                "links="
            )
        rng = random.Random(seed)
        lo, hi = window if window is not None else (
            max(1, cycles // 4),
            max(2, cycles // 2),
        )
        targets = [c for c in range(num_clusters) if c != home_cluster]
        events = []
        killed: set = set()
        for _ in range(faults):
            kind = kinds[rng.randrange(len(kinds))]
            at = rng.randrange(lo, max(lo + 1, hi))
            if kind == "cluster":
                alive = [c for c in targets if c not in killed]
                if len(alive) <= 1:
                    continue  # keep at least one non-home cluster alive
                target = alive[rng.randrange(len(alive))]
                events.append(
                    FaultEvent(cycle=at, kind="cluster_kill", cluster=target)
                )
                killed.add(target)
            elif kind == "fu":
                target = targets[rng.randrange(len(targets))]
                unit = FU_POOLS[rng.randrange(len(FU_POOLS))]
                events.append(
                    FaultEvent(
                        cycle=at, kind="fu_disable", cluster=target, unit=unit
                    )
                )
            elif kind == "link":
                src, dst = links[rng.randrange(len(links))]
                events.append(
                    FaultEvent(cycle=at, kind="link_degrade", src=src, dst=dst)
                )
            else:
                raise ConfigError(
                    f"unknown seeded fault family {kind!r}; choose from "
                    "('cluster', 'fu', 'link')"
                )
        return cls(events=tuple(events))

