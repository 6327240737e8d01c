"""repro — reproduction of "Dynamically Managing the Communication-
Parallelism Trade-off in Future Clustered Processors" (ISCA 2003).

Public API tour (the stable facade lives in :mod:`repro.api`):

>>> from repro import simulate
>>> result = simulate("gzip", trace_length=20_000, seed=1)
>>> 0.0 < result.ipc <= 16.0
True

Dynamic reconfiguration (the paper's contribution):

>>> result = simulate("swim", trace_length=20_000, reconfig_policy="explore")  # doctest: +SKIP

Matrices of runs fan out over worker processes with caching and
checkpointing:

>>> from repro import SimSpec, sweep
>>> outcome = sweep([SimSpec("gzip", reconfig_policy=f"static-{n}")
...                  for n in (4, 16)], jobs=2)  # doctest: +SKIP

The re-exports below resolve lazily (PEP 562): ``import repro`` pays for
nothing until an attribute is touched, so importing one submodule (say
``repro.config``) does not load the simulator stack.
"""

from importlib import import_module

from ._version import __version__ as __version__

#: public name -> defining submodule (relative to this package)
_EXPORTS = {
    "MultiProgResult": ".api",
    "MultiProgSpec": ".api",
    "SimResult": ".api",
    "SimSpec": ".api",
    "SweepResult": ".api",
    "simulate": ".api",
    "sweep": ".api",
    "SweepConfig": ".experiments.sweep",
    "CacheConfig": ".config",
    "ClusterConfig": ".config",
    "FrontEndConfig": ".config",
    "InterconnectConfig": ".config",
    "MemoryConfig": ".config",
    "ProcessorConfig": ".config",
    "centralized_cache": ".config",
    "decentralized_cache": ".config",
    "decentralized_config": ".config",
    "default_config": ".config",
    "grid_config": ".config",
    "monolithic_config": ".config",
    "ring_of_rings_config": ".config",
    "torus_config": ".config",
    "run_multiprog": ".multiprog",
    "DistantILPController": ".core",
    "ExploreConfig": ".core",
    "FineGrainConfig": ".core",
    "FineGrainController": ".core",
    "IntervalExploreController": ".core",
    "NoExploreConfig": ".core",
    "ReconfigurationController": ".core",
    "StaticController": ".core",
    "SubroutineController": ".core",
    "instability_factor": ".core",
    "instability_profile": ".core",
    "record_intervals": ".core",
    "EnergyModel": ".energy",
    "compare_energy": ".energy",
    "leakage_savings": ".energy",
    "ConfigError": ".errors",
    "ReproError": ".errors",
    "SimulationError": ".errors",
    "WorkloadError": ".errors",
    "FaultEvent": ".resilience",
    "FaultSchedule": ".resilience",
    "JsonlTracer": ".observability",
    "MemoryTracer": ".observability",
    "TraceSession": ".observability",
    "Tracer": ".observability",
    "ScalingCurve": ".partition",
    "best_partition": ".partition",
    "measure_scaling": ".partition",
    "partition_report": ".partition",
    "ClusteredProcessor": ".pipeline",
    "simulate_monolithic": ".pipeline",
    "IntervalWindow": ".stats",
    "SimStats": ".stats",
    "BENCHMARK_NAMES": ".workloads",
    "PAPER_TABLE3": ".workloads",
    "PAPER_TABLE4": ".workloads",
    "Profile": ".workloads",
    "Trace": ".workloads",
    "all_profiles": ".workloads",
    "generate_trace": ".workloads",
    "get_profile": ".workloads",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name):
    origin = _EXPORTS.get(name)
    if origin is not None:
        value = getattr(import_module(origin, __name__), name)
    else:
        # plain submodule access (repro.api, repro.experiments, ...)
        try:
            value = import_module(f".{name}", __name__)
        except ImportError as exc:
            raise AttributeError(
                f"module {__name__!r} has no attribute {name!r}"
            ) from exc
    globals()[name] = value  # cache: __getattr__ runs once per name
    return value


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS))
