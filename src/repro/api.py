"""Stable public facade of the reproduction.

Callers should use this module (or the identical re-exports at the package
root) instead of reaching into ``repro.pipeline.processor``,
``repro.experiments.runner``, or ``repro.experiments.sweep`` — those are
engine internals whose signatures may change; this facade will not.

Two entry points cover everything:

* :func:`simulate` — one simulation, in process, returning a
  :class:`SimResult`.
* :func:`sweep` — a matrix of simulations fanned out over worker processes
  with caching, checkpointing, and structured failures, returning a
  :class:`SweepResult`.

Both speak one keyword vocabulary (:class:`SimSpec`):

``workload``
    A benchmark profile name (``"gzip"``, ``"swim"``, ... — see
    ``repro.workloads``) or an explicit :class:`~repro.workloads.Trace`.
``max_instructions``
    Commit-bounded instruction limit; ``None`` runs the whole trace.  The
    run stops at the first cycle boundary at or past the limit, so the
    committed count may overshoot by at most ``commit_width - 1``.
``seed`` / ``trace_length``
    Trace-generation parameters (profile-name workloads only).
``topology``
    Machine shape: ``"ring"`` (default), ``"grid"``, ``"torus"``,
    ``"ring-of-rings"``, ``"decentralized"`` (ring + per-cluster cache
    banks), or ``"monolithic"``.
``reconfig_policy``
    ``"none"``, ``"static-<n>"``, ``"explore"``, ``"no-explore"``,
    ``"finegrain"``, ``"subroutine"``, or an explicit
    :class:`~repro.experiments.sweep.ControllerSpec`.
``faults``
    An optional :class:`~repro.resilience.FaultSchedule` of cycle-keyed
    architectural faults (cluster kills, link severs/degrades, FU
    disables); the run degrades gracefully and the statistics grow
    fault/recovery counters (see ``docs/RESILIENCE.md``).

Example::

    >>> from repro.api import simulate
    >>> result = simulate("gzip", trace_length=10_000, reconfig_policy="static-4")
    >>> 0.0 < result.ipc <= 16.0
    True
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Iterable, List, Optional, Tuple, Union

from .config import TOPOLOGIES, ProcessorConfig, monolithic_config
from .errors import ConfigError
from .multiprog import MultiProgResult, MultiProgSpec, run_multiprog
from .resilience import FaultSchedule
from .stats import RunResult
from .workloads.instruction import Trace
from .workloads.profiles import BENCHMARK_NAMES, get_profile

__all__ = [
    "MultiProgResult",
    "MultiProgSpec",
    "SimSpec",
    "SimResult",
    "SweepResult",
    "simulate",
    "sweep",
]

#: the facade's name for the one result type, :class:`repro.stats.RunResult`
SimResult = RunResult


# ----------------------------------------------------------------------
# the unified vocabulary


@dataclass(frozen=True)
class SimSpec:
    """Declarative description of one simulation in the facade vocabulary.

    Every field has a sensible default except ``workload``; see the module
    docstring for the vocabulary.  A profile name that is not one of the
    nine profiles raises :class:`~repro.errors.ConfigError` here, before
    any run.  ``processor`` overrides ``topology``/``clusters`` with an
    explicit :class:`~repro.config.ProcessorConfig`.
    """

    workload: Union[str, Trace]
    max_instructions: Optional[int] = None
    seed: int = 7
    topology: str = "ring"
    reconfig_policy: Union[str, object] = "none"
    clusters: int = 16
    trace_length: Optional[int] = None
    warmup: int = 0
    processor: Optional[ProcessorConfig] = None
    #: steering override: ``("mod-n", 3)`` or ``("first-fit",)``
    steering: Optional[Tuple] = None
    #: architectural fault schedule; the run degrades gracefully around
    #: the declared faults — see ``docs/RESILIENCE.md``
    faults: Optional[FaultSchedule] = None
    label: str = ""

    def __post_init__(self) -> None:
        if isinstance(self.workload, str) and self.workload not in BENCHMARK_NAMES:
            raise ConfigError(
                f"unknown workload {self.workload!r}; choose from "
                f"{BENCHMARK_NAMES}"
            )

    def resolved_label(self) -> str:
        if self.label:
            return self.label
        policy = self.reconfig_policy
        return policy if isinstance(policy, str) else type(policy).__name__

    # -- resolution helpers -------------------------------------------
    def processor_config(self) -> ProcessorConfig:
        if self.processor is not None:
            return self.processor
        if self.topology == "monolithic":
            return monolithic_config()
        factory = TOPOLOGIES.get(self.topology)
        if factory is None:
            raise ConfigError(
                f"unknown topology {self.topology!r}; choose from "
                f"{sorted(TOPOLOGIES) + ['monolithic']}"
            )
        return factory(self.clusters)

    def controller_spec(self):
        """The :class:`ControllerSpec` equivalent of ``reconfig_policy``."""
        from .experiments.sweep import ControllerSpec

        return ControllerSpec.parse(self.reconfig_policy, self.clusters)

    def to_run_spec(self):
        """The sweep-engine :class:`RunSpec` for this simulation.

        Only profile-name workloads convert: a :class:`Trace` cannot be
        shipped to worker processes by value (specs are regenerated from
        ``(profile, trace_length, seed)`` on the worker side).
        """
        from .experiments.runner import scaled_length
        from .experiments.sweep import RunSpec

        if not isinstance(self.workload, str):
            raise ConfigError(
                "sweep() needs profile-name workloads (traces are "
                "regenerated inside workers); use simulate() for an "
                "explicit Trace"
            )
        return RunSpec(
            profile=self.workload,
            trace_length=self.trace_length or scaled_length(),
            seed=self.seed,
            config=self.processor_config(),
            controller=self.controller_spec(),
            warmup=self.warmup,
            label=self.resolved_label(),
            steering=self.steering,
            max_instructions=self.max_instructions,
            faults=self.faults,
        )


# ----------------------------------------------------------------------
# simulate


def _resolve_tracer(trace):
    """``trace=`` keyword -> ``(tracer, session_to_close)``.

    A string/path names an export directory: a
    :class:`~repro.observability.TraceSession` is created and closed (files
    written) when the run finishes.  An explicit
    :class:`~repro.observability.Tracer` is used as-is and left open — the
    caller owns its lifecycle.
    """
    if trace is None:
        return None, None
    from .observability import Tracer, TraceSession

    if isinstance(trace, Tracer):
        return trace, None
    session = TraceSession(trace)
    return session, session


def simulate(
    workload,
    *,
    trace=None,
    **kwargs,
) -> Union[SimResult, MultiProgResult]:
    """Run one simulation and return its :class:`SimResult`.

    ``workload`` is a :class:`SimSpec`, a profile name, or a
    :class:`~repro.workloads.Trace`; every other parameter is a
    :class:`SimSpec` field passed by keyword::

        simulate("swim", trace_length=20_000, reconfig_policy="explore")
        simulate(my_trace, processor=my_config, warmup=2_000)
        simulate(SimSpec(workload="gzip", topology="grid"))

    ``trace`` (not a :class:`SimSpec` field — tracers are stateful) turns
    on observability: pass a directory path to get ``events.jsonl``,
    ``timeline.csv``, and a Perfetto-loadable ``trace.json`` written there,
    or a :class:`repro.observability.Tracer` instance to sink events
    yourself.  Tracing is passive — the returned result is bit-identical
    to an untraced run (see ``docs/OBSERVABILITY.md``).

    Multiprogrammed runs use the same entry point: pass a
    :class:`~repro.multiprog.MultiProgSpec`, or a tuple of profile names
    plus :class:`MultiProgSpec` fields by keyword, and the multiprog
    co-scheduler runs instead, returning a
    :class:`~repro.multiprog.MultiProgResult`::

        simulate(("gzip", "swim"), topology="torus", arbiter="round-robin")

    The pre-facade spelling ``simulate(trace, config, controller)`` was
    removed after its deprecation cycle; every parameter except the
    workload is keyword-only.
    """
    if isinstance(workload, MultiProgSpec) or isinstance(workload, (tuple, list)):
        return _simulate_multiprog(workload, trace, kwargs)

    if isinstance(workload, SimSpec):
        spec = dataclasses.replace(workload, **kwargs) if kwargs else workload
    else:
        spec = SimSpec(workload, **kwargs)

    from .experiments.runner import run_trace, scaled_length
    from .workloads.generator import generate_trace

    if isinstance(spec.workload, Trace):
        workload_trace = spec.workload
    else:
        workload_trace = generate_trace(
            get_profile(spec.workload),
            spec.trace_length or scaled_length(),
            spec.seed,
        )
    controller_obj = spec.controller_spec().build()
    steering_factory = None
    if spec.steering is not None:
        from .experiments.sweep import _build_steering

        steering_factory = _build_steering(spec.steering)
    tracer, session = _resolve_tracer(trace)
    try:
        result = run_trace(
            workload_trace,
            spec.processor_config(),
            controller_obj,
            warmup=spec.warmup,
            label=spec.resolved_label(),
            steering=steering_factory,
            max_instructions=spec.max_instructions,
            tracer=tracer,
            fault_schedule=spec.faults,
        )
    finally:
        if session is not None:
            session.close()
    return result


def _simulate_multiprog(workload, trace, kwargs) -> MultiProgResult:
    """The multiprogrammed arm of :func:`simulate`."""
    if isinstance(workload, MultiProgSpec):
        spec = dataclasses.replace(workload, **kwargs) if kwargs else workload
    else:
        if not workload or not all(isinstance(w, str) for w in workload):
            raise ConfigError(
                "a multiprogrammed workload is a non-empty tuple of "
                f"profile names, got {workload!r}"
            )
        allowed = {f.name for f in dataclasses.fields(MultiProgSpec)}
        unknown = sorted(set(kwargs) - allowed)
        if unknown:
            raise ConfigError(
                f"unknown multiprog arguments {unknown}; choose from "
                f"{sorted(allowed - {'workloads'})}"
            )
        spec = MultiProgSpec(workloads=tuple(workload), **kwargs)
    tracer, session = _resolve_tracer(trace)
    try:
        return run_multiprog(spec, tracer=tracer)
    finally:
        if session is not None:
            session.close()


# ----------------------------------------------------------------------
# sweep


@dataclass
class SweepResult:
    """Outcome of one sweep: per-spec records plus engine metrics.

    ``records`` line up with the input specs (one
    :class:`~repro.experiments.sweep.RunRecord` each, in order).
    ``results`` holds the corresponding :class:`SimResult` for successful
    runs and ``None`` for structured failures.
    """

    records: List[object] = field(default_factory=list)
    metrics: Optional[object] = None

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.records)

    @property
    def failures(self) -> List[object]:
        return [r for r in self.records if not r.ok]

    @property
    def results(self) -> List[Optional[SimResult]]:
        return [r.result if r.ok else None for r in self.records]

    def require_ok(self) -> "SweepResult":
        """Raise :class:`~repro.errors.SweepError` on any failed record."""
        from .experiments.sweep import require_ok

        require_ok(self.records)
        return self

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self):
        return iter(self.records)


def sweep(
    specs: Iterable[object],
    *,
    backend: str = "auto",
    jobs: Optional[int] = None,
    cache: bool = True,
    cache_dir=None,
    journal=None,
    resume: bool = False,
    timeout: Optional[float] = None,
    retries: int = 1,
    progress=None,
    trace=None,
) -> SweepResult:
    """Run a matrix of simulations serially or across a process pool.

    ``specs`` may mix :class:`SimSpec`,
    :class:`~repro.multiprog.MultiProgSpec`, and raw
    :class:`~repro.experiments.sweep.RunSpec` entries.  Parallelism,
    caching, checkpoint journals, and fault tolerance are the sweep
    engine's (see ``docs/SWEEPS.md``); this facade only translates the
    vocabulary.  Failures come back as structured records — call
    :meth:`SweepResult.require_ok` to raise instead.

    ``backend`` picks where specs run — ``"auto"`` (serial for one job,
    a local process pool otherwise), ``"serial"``, or ``"process-pool"``
    (``jobs`` worker processes).  Both backends return bit-identical
    records; see ``docs/SWEEPS.md``.

    ``trace`` names a directory to receive the sweep's observability
    artifacts: ``sweep_metrics.json`` (the extended metrics snapshot with
    per-spec queue/run timings and backend lifecycle events) and
    ``sweep_trace.json`` (Chrome trace-event spans of every executed
    run, lane-packed to show worker utilization; open in Perfetto).
    """
    from .experiments.sweep import (
        RunSpec,
        SweepConfig,
        SweepRunner,
        multiprog_run_spec,
    )

    run_specs: List[RunSpec] = []
    for spec in specs:
        if isinstance(spec, SimSpec):
            run_specs.append(spec.to_run_spec())
        elif isinstance(spec, MultiProgSpec):
            run_specs.append(multiprog_run_spec(spec))
        elif isinstance(spec, RunSpec):
            run_specs.append(spec)
        else:
            raise ConfigError(
                f"sweep() takes SimSpec, MultiProgSpec, or RunSpec "
                f"entries, got {type(spec).__name__}"
            )
    runner = SweepRunner(
        SweepConfig(
            backend=backend,
            jobs=jobs,
            cache_dir=cache_dir,
            use_cache=cache,
            timeout=timeout,
            retries=retries,
            journal=journal,
            resume=resume,
            trace_dir=trace,
        ),
        progress=progress,
    )
    records = runner.run(run_specs)
    return SweepResult(records=records, metrics=runner.metrics)
