"""Exception types for the repro package."""


class ReproError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(ReproError):
    """An invalid configuration was supplied."""


class SimulationError(ReproError):
    """The simulator reached an inconsistent state (internal invariant)."""


class WorkloadError(ReproError):
    """A workload/trace could not be generated as requested."""


class SweepError(ReproError, RuntimeError):
    """One or more runs of a sweep ended in a structured failure.

    ``records`` holds every :class:`~repro.experiments.sweep.RunRecord` of
    the sweep (successes included) so callers — the CLI in particular — can
    render a failure table instead of a bare traceback.
    """

    def __init__(self, message: str, records=()) -> None:
        super().__init__(message)
        self.records = list(records)

    @property
    def failures(self):
        return [r for r in self.records if not r.ok]


class RunTimeout(ReproError):
    """A run passed its wall-clock deadline.

    Raised at the first deadline check past it (see
    :meth:`~repro.pipeline.processor.ClusteredProcessor.advance_to`);
    :func:`~repro.experiments.sweep.execute_spec` turns it into a
    ``"timeout"`` record.
    """


class SweepInterrupted(ReproError):
    """A sweep was stopped by SIGINT/SIGTERM after draining in-flight work.

    ``completed`` holds the records that finished (and were journaled)
    before the stop — a resumed sweep picks up exactly after them.
    """

    def __init__(self, message: str, completed=()) -> None:
        super().__init__(message)
        self.completed = list(completed)


class FaultInjected(ReproError):
    """An artificial failure raised by the fault-injection harness."""
