"""Single-run experiment executor.

All paper experiments measure steady-state behaviour, so the runner always
excludes a warmup prefix (cold caches and predictors would otherwise
dominate the short laptop-scale traces — the paper warmed its structures
over two billion fast-forwarded instructions).
"""

from __future__ import annotations

from typing import Callable, Optional

from ..config import ProcessorConfig, env_float
from ..pipeline.processor import ClusteredProcessor
from ..stats import RunResult
from ..workloads.instruction import Trace

#: environment knob: multiply all default trace lengths (>=1); lets a beefier
#: machine run closer to paper scale without editing the exhibits
TRACE_SCALE_ENV = "REPRO_TRACE_SCALE"

DEFAULT_TRACE_LENGTH = 60_000
DEFAULT_WARMUP = 6_000
DEFAULT_SEED = 7


def trace_scale() -> float:
    scale = env_float(TRACE_SCALE_ENV)
    return 1.0 if scale is None else max(0.1, scale)


def scaled_length(base: int = DEFAULT_TRACE_LENGTH) -> int:
    return int(base * trace_scale())


def run_trace(
    trace: Trace,
    config: ProcessorConfig,
    controller: Optional[object] = None,
    *,
    warmup: int = DEFAULT_WARMUP,
    label: str = "",
    steering: Optional[Callable[[object], object]] = None,
    max_instructions: Optional[int] = None,
    tracer: Optional[object] = None,
    fault_schedule: Optional[object] = None,
    deadline: Optional[float] = None,
) -> RunResult:
    """Simulate a trace and report post-warmup steady-state metrics.

    The controller (if any) runs from cycle zero — warmup only affects
    *measurement*, exactly like the paper's fast-forward + warm simulation
    methodology.  ``steering``, when given, is called with the processor's
    cluster list and must return a steering heuristic that replaces the
    default producer-preference one (used by the steering ablation).
    ``max_instructions`` bounds the run in *committed* instructions
    (commit-bounded: see :meth:`ClusteredProcessor.run`), counted from the
    start of the trace, warmup included.  ``tracer`` (a
    :class:`repro.observability.Tracer`) observes the run passively; the
    statistics are bit-identical with or without one.  ``fault_schedule``
    (a :class:`repro.resilience.FaultSchedule`) injects cycle-scheduled
    architectural faults; unlike tracing it is *not* passive — it is part
    of the run's identity, exactly like the config.  ``deadline`` (a
    :func:`time.monotonic` value) bounds both legs, warmup and measured
    run, as :meth:`ClusteredProcessor.advance_to` describes; both legs
    run under the wedge guard.

    The pre-facade spelling ``run_trace(trace, config, controller, warmup,
    label)`` was removed after its deprecation cycle; everything past the
    controller is keyword-only.
    """
    processor = ClusteredProcessor(
        trace, config, controller, tracer=tracer, fault_schedule=fault_schedule
    )
    try:
        if steering is not None:
            processor.steering = steering(processor.clusters)
        warmup = min(warmup, max(0, len(trace) - 1000))
        if max_instructions is not None:
            warmup = min(warmup, max_instructions)
        processor.advance_to(warmup, deadline)
        cycles0 = processor.cycle
        committed0 = processor.stats.committed
        mispredicts0 = processor.stats.mispredicts
        cluster_cycles0 = processor.stats.cluster_cycle_product
        stats = processor.run(max_instructions, deadline=deadline)
    finally:
        processor.release()

    cycles = max(1, stats.cycles - cycles0)
    committed = stats.committed - committed0
    mispredicts = stats.mispredicts - mispredicts0
    return RunResult(
        name=trace.name,
        label=label,
        ipc=committed / cycles,
        committed=committed,
        cycles=cycles,
        mispredict_interval=(committed / mispredicts) if mispredicts else float("inf"),
        avg_active_clusters=(stats.cluster_cycle_product - cluster_cycles0) / cycles,
        reconfigurations=stats.reconfigurations,
        stats=stats,
    )

