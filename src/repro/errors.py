"""Exception hierarchy for the repro package.

Every error raised by this library derives from :class:`ReproError` so that
callers can catch library failures with a single ``except`` clause while
letting programming errors (``TypeError`` etc.) propagate.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class SimulationError(ReproError):
    """The discrete-event simulator was used incorrectly.

    Examples: scheduling an event in the past, running a simulator that
    has already been stopped, cancelling an event twice.
    """


class DataGenerationError(ReproError):
    """A dataset or distribution could not be generated as requested."""


class DfsError(ReproError):
    """Distributed-file-system namespace or placement failure."""


class FileNotFoundInDfsError(DfsError):
    """The requested DFS path does not exist."""


class FileAlreadyExistsError(DfsError):
    """Attempt to create a DFS path that already exists."""


class ClusterConfigError(ReproError):
    """The cluster topology or cost model was configured inconsistently."""


class JobError(ReproError):
    """A MapReduce job failed or was configured incorrectly."""


class JobConfError(JobError):
    """A JobConf is missing required parameters or holds invalid values."""


class SchedulerError(ReproError):
    """A task scheduler was driven into an invalid state."""


class PolicyError(ReproError):
    """A growth policy is unknown or its definition is invalid."""


class InputProviderError(ReproError):
    """An Input Provider misbehaved (e.g. returned splits it was never given)."""


class HiveError(ReproError):
    """Base class for query-layer failures."""


class HiveSyntaxError(HiveError):
    """The query text could not be tokenized or parsed."""

    def __init__(self, message: str, position: int | None = None) -> None:
        self.position = position
        if position is not None:
            message = f"{message} (at offset {position})"
        super().__init__(message)


class HiveAnalysisError(HiveError):
    """The query parsed but references unknown tables/columns or bad types."""


class WorkloadError(ReproError):
    """A workload definition or run was invalid."""


class SweepError(ReproError):
    """An experiment sweep was configured or executed incorrectly."""


class ScanCompileError(ReproError):
    """A predicate could not be compiled by the scan codegen layer."""


class MmapStoreError(ReproError):
    """An mmap columnar dataset file is invalid or was misused."""
