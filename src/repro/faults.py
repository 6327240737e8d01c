"""Fault-injection harness for chaos-testing the sweep engine.

A :class:`FaultPlan` describes artificial failures to inject into
:func:`~repro.experiments.sweep.execute_spec` and
:class:`~repro.experiments.sweep.ResultCache`:

* ``crash_profiles`` — hard-kill the worker process (``os._exit``) when it
  executes a spec for one of these benchmark profiles, which surfaces as a
  ``BrokenProcessPool`` in the parent.  ``crash_token_dir`` bounds the
  number of crashes: each crash consumes one token file (the unlink is
  atomic, so concurrent workers never double-spend); with no token
  directory the profile crashes every time, which is how the quarantine
  path is exercised.
* ``fail_profiles`` — raise :class:`~repro.errors.FaultInjected` inside the
  run (an ordinary in-worker exception → structured ``"failed"`` record).
* ``nan_profiles`` — poison the finished ``RunResult`` with NaN IPC, which
  the sweep-level sanity validation must catch.
* ``corrupt_cache_writes`` — truncate and scramble every cache payload as
  it is written, which the cache's checksum must detect on read.
* ``scramble_topology`` — truncate every multi-hop interconnect route as
  topologies are built, which the invariant checker's route-table walk
  (``REPRO_CHECK_INVARIANTS``) must catch before any statistics are
  trusted.

The plan travels to worker processes through the ``REPRO_FAULT_PLAN``
environment variable (a JSON dict), so no live objects cross the process
boundary.  Use :func:`set_fault_plan` / :func:`clear_fault_plan` from
tests; production code never activates any of this — with no plan set,
every hook is a no-op costing one ``dict`` lookup.

Crashing is refused in the process that armed the plan (``main_pid``):
a ``crash_profiles`` entry executed in-process (``jobs=1``) degrades to a
raised :class:`FaultInjected` instead of killing the test runner.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict, dataclass, field
from typing import Optional, Tuple

from .errors import FaultInjected

__all__ = [
    "CRASH_EXIT_CODE",
    "FAULT_PLAN_ENV",
    "FaultPlan",
    "active_plan",
    "clear_fault_plan",
    "set_fault_plan",
]

#: environment variable carrying the active plan as JSON
FAULT_PLAN_ENV = "REPRO_FAULT_PLAN"

#: exit code used for injected worker crashes (distinctive in waitpid logs)
CRASH_EXIT_CODE = 113


@dataclass
class FaultPlan:
    """A declarative set of faults to inject (see module docstring)."""

    crash_profiles: Tuple[str, ...] = ()
    #: directory of token files; each crash consumes one (None = unlimited)
    crash_token_dir: Optional[str] = None
    fail_profiles: Tuple[str, ...] = ()
    nan_profiles: Tuple[str, ...] = ()
    corrupt_cache_writes: bool = False
    scramble_topology: bool = False
    #: pid of the process that armed the plan; crashes are refused there
    main_pid: int = field(default_factory=os.getpid)

    def to_json(self) -> str:
        return json.dumps(asdict(self))

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        """Strict parse of a ``REPRO_FAULT_PLAN`` payload.

        Unknown keys and wrong-typed fields raise :class:`ValueError`
        naming the offending key, so a typo in a chaos-test plan fails
        loudly at arm time instead of silently injecting nothing.
        (:func:`active_plan` still degrades a malformed *inherited*
        environment value to "no plan" — the harness must never be its
        own fault — but the error message reaches the test log.)
        """
        data = json.loads(text)
        if not isinstance(data, dict):
            raise ValueError(
                f"fault plan must be a JSON object, got {type(data).__name__}"
            )
        unknown = sorted(set(data) - set(_PLAN_FIELD_TYPES))
        if unknown:
            raise ValueError(f"unknown fault plan key {unknown[0]!r}")
        for key, (types, label) in _PLAN_FIELD_TYPES.items():
            if key not in data:
                continue
            value = data[key]
            if not isinstance(value, types) or isinstance(value, bool) != (
                types is bool
            ):
                raise ValueError(
                    f"fault plan key {key!r} must be {label}, got "
                    f"{type(value).__name__}"
                )
            if types is list:
                for item in value:
                    if not isinstance(item, str):
                        raise ValueError(
                            f"fault plan key {key!r} must be {label}, got "
                            f"a {type(item).__name__} element"
                        )
        for key in ("crash_profiles", "fail_profiles", "nan_profiles"):
            data[key] = tuple(data.get(key) or ())
        return cls(**data)


#: JSON field -> (accepted type(s) for isinstance, human-readable label);
#: list fields additionally require every element to be a string
_PLAN_FIELD_TYPES = {
    "crash_profiles": (list, "a list of profile names"),
    "crash_token_dir": ((str, type(None)), "a directory path or null"),
    "fail_profiles": (list, "a list of profile names"),
    "nan_profiles": (list, "a list of profile names"),
    "corrupt_cache_writes": (bool, "a boolean"),
    "scramble_topology": (bool, "a boolean"),
    "main_pid": (int, "a process id"),
}


_ACTIVE: Optional[FaultPlan] = None


def set_fault_plan(plan: FaultPlan) -> None:
    """Arm ``plan`` in this process and (via the environment) in every
    worker process spawned afterwards."""
    global _ACTIVE
    _ACTIVE = plan
    os.environ[FAULT_PLAN_ENV] = plan.to_json()


def clear_fault_plan() -> None:
    global _ACTIVE
    _ACTIVE = None
    os.environ.pop(FAULT_PLAN_ENV, None)


def active_plan() -> Optional[FaultPlan]:
    """The armed plan, from this process or inherited via the environment.

    A malformed environment value deactivates injection rather than
    failing the sweep — the harness must never be its own fault.
    """
    if _ACTIVE is not None:
        return _ACTIVE
    text = os.environ.get(FAULT_PLAN_ENV)
    if not text:
        return None
    try:
        return FaultPlan.from_json(text)
    except (ValueError, TypeError):
        return None


def _consume_crash_token(directory: str) -> bool:
    """Atomically spend one crash token; False when the budget is gone."""
    try:
        names = sorted(os.listdir(directory))
    except OSError:
        return False
    for name in names:
        try:
            os.unlink(os.path.join(directory, name))
            return True
        except OSError:
            continue  # another worker spent it first
    return False


def on_execute(spec) -> None:
    """Called at the top of every ``execute_spec``; may crash or raise."""
    plan = active_plan()
    if plan is None:
        return
    profile = spec.profile
    if profile in plan.crash_profiles:
        if os.getpid() == plan.main_pid:
            raise FaultInjected(
                f"injected crash for {profile!r} refused in the main process"
            )
        if plan.crash_token_dir is None or _consume_crash_token(plan.crash_token_dir):
            os._exit(CRASH_EXIT_CODE)
    if profile in plan.fail_profiles:
        raise FaultInjected(f"injected failure for profile {profile!r}")


def poison_record(record) -> None:
    """NaN-in-stats fault: corrupt the finished result's IPC in place."""
    plan = active_plan()
    if plan is None or record.result is None:
        return
    if record.spec.profile in plan.nan_profiles:
        record.result.ipc = float("nan")


def corrupt_cache_payload(data: bytes) -> bytes:
    """Bit-rot fault: truncate and scramble a cache payload being written."""
    plan = active_plan()
    if plan is None or not plan.corrupt_cache_writes:
        return data
    keep = max(1, len(data) // 2)
    return bytes(b ^ 0x5A for b in data[:keep])


def scrambled_topology(topology):
    """Miswiring fault: drop the last link of every multi-hop route.

    Called by ``build_topology`` on every topology it constructs.  With no
    plan armed this returns ``topology`` untouched; with
    ``scramble_topology`` set it shadows the instance's ``route`` so every
    multi-hop route ends one node short of its destination — exactly the
    corruption the invariant checker's route-table walk must report as a
    :class:`~repro.errors.SimulationError` (deterministic, no randomness).
    """
    plan = active_plan()
    if plan is None or not plan.scramble_topology:
        return topology
    real_route = topology.route

    def broken_route(src, dst):
        path = tuple(real_route(src, dst))
        return path[:-1] if len(path) >= 2 else path

    topology.route = broken_route
    return topology
