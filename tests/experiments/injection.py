"""Fault injection for the chaos tests, from the tests' side.

The simulator carries no fault harness: each fault below goes in through
a seam the sweep engine or the interconnect already has.

* **Worker crash** — :func:`crashing` wraps a spec so that the pool worker
  which unpickles it exits at once (``os._exit``), which the parent sees
  as a ``BrokenProcessPool``.  A token directory bounds the crashes: each
  one spends a token file, and once they are gone the spec unpickles as
  the plain :class:`RunSpec`.  Outside a multiprocessing child it always
  does, so a serial sweep runs it normally and a journal that recorded it
  loads on ``--resume``.
* **Failed, transient or NaN run** — :func:`inject_into_runs` patches
  ``repro.experiments.sweep.run_trace``.  A pool worker imports its own
  copy of that module, so only a serial sweep sees the patch.
* **Cache bit rot** — :func:`rot_cache_entries` rewrites the stored
  entries on disk under their original checksums.
* **Miswired fabric** — :func:`miswire_fabrics` patches
  ``repro.interconnect.network.build_topology`` so that every multi-hop
  route ends one node short of its destination.
"""

import dataclasses
import functools
import multiprocessing
import os
import pathlib
import pickle
from typing import Optional

from repro.experiments import sweep
from repro.experiments.sweep import RunSpec
from repro.interconnect import network

#: exit code of an injected worker crash (distinctive in waitpid logs)
CRASH_EXIT_CODE = 113


class InjectedFailure(RuntimeError):
    """The failure :func:`fail` raises inside a run."""


def _run_spec_fields(spec: RunSpec) -> dict:
    return {f.name: getattr(spec, f.name) for f in dataclasses.fields(RunSpec)}


@dataclasses.dataclass(frozen=True)
class CrashingSpec(RunSpec):
    """A :class:`RunSpec` that kills the pool worker unpickling it."""

    #: directory of token files, one spent per crash (None: no budget)
    token_dir: Optional[os.PathLike] = None

    def __reduce__(self):
        return _spec_or_crash, (self.token_dir, _run_spec_fields(self))


def crashing(spec: RunSpec, token_dir: Optional[os.PathLike] = None) -> CrashingSpec:
    """``spec``, made to crash every pool worker that receives it, or
    only as many as ``token_dir`` holds token files."""
    return CrashingSpec(**_run_spec_fields(spec), token_dir=token_dir)


def _spec_or_crash(token_dir: Optional[os.PathLike], fields: dict) -> RunSpec:
    if multiprocessing.parent_process() is not None and (
        token_dir is None or _spend_token(token_dir)
    ):
        os._exit(CRASH_EXIT_CODE)
    return RunSpec(**fields)


def _spend_token(directory: os.PathLike) -> bool:
    """Spend one token file; False once none is left.  The unlink is
    atomic, so two workers never spend the same token."""
    for name in sorted(os.listdir(directory)):
        try:
            os.unlink(os.path.join(directory, name))
            return True
        except OSError:
            continue  # another worker spent it first
    return False


def inject_into_runs(monkeypatch, profile: str, fault) -> None:
    """Send every serial-sweep run of ``profile`` through ``fault``.

    ``fault(run)`` gets the real run as a zero-argument callable and
    returns its result or raises; runs of other profiles are untouched.
    """
    real = sweep.run_trace

    def run_trace(trace, *args, **kwargs):
        run = functools.partial(real, trace, *args, **kwargs)
        return fault(run) if trace.name == profile else run()

    monkeypatch.setattr(sweep, "run_trace", run_trace)


def fail(run):
    """An :func:`inject_into_runs` fault: the run raises."""
    raise InjectedFailure("injected failure")


def rot_cache_entries(cache_dir) -> list:
    """Truncate and scramble the record bytes of every result-cache entry
    under ``cache_dir``, keeping each stored SHA-256; returns the rotten
    record payloads."""
    rotten = []
    for path in sorted(pathlib.Path(cache_dir).glob("*.pkl")):
        payload = pickle.loads(path.read_bytes())
        data = payload["record"]
        payload["record"] = bytes(b ^ 0x5A for b in data[: max(1, len(data) // 2)])
        path.write_bytes(pickle.dumps(payload))
        rotten.append(payload["record"])
    return rotten


def miswire_fabrics(monkeypatch) -> None:
    """Every topology built from now on drops the last link of each
    multi-hop route, so the route ends one node short of ``dst``."""
    real = network.build_topology

    def build_topology(config, num_nodes):
        topology = real(config, num_nodes)
        real_route = topology.route

        def route(src, dst):
            path = tuple(real_route(src, dst))
            return path[:-1] if len(path) >= 2 else path

        topology.route = route
        return topology

    monkeypatch.setattr(network, "build_topology", build_topology)
