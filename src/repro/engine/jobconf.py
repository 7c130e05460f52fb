"""JobConf: the primary interface for describing a job (paper §IV).

As in Hadoop, a JobConf is a bag of string configuration parameters; the
paper extends the parameter set with::

    dynamic.job             boolean flag, true for dynamic jobs
    dynamic.job.policy      name of the growth policy
    dynamic.input.provider  the InputProvider implementation to use

We keep the string-parameter surface (so the Hive layer can ``SET`` them
exactly as the paper describes) and add typed accessors plus direct
object fields for the Python callables a job needs (mapper/reducer
factories and — simulation substrate only — the per-split output profile
used when rows are not materialized).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.dfs.split import InputSplit
from repro.engine.mapreduce import Mapper, Reducer
from repro.errors import JobConfError

# Parameter names from the paper (§IV).
DYNAMIC_JOB = "dynamic.job"
DYNAMIC_JOB_POLICY = "dynamic.job.policy"
DYNAMIC_INPUT_PROVIDER = "dynamic.input.provider"

# Additional parameters used by the sampling implementation.
SAMPLE_SIZE = "sampling.size"
SAMPLING_PREDICATE = "sampling.predicate"
STATS_MODE = "sampling.stats.mode"

# Error-bounded aggregation (ROADMAP item 2): the accuracy provider
# stops when every group's CI half-width is within ERROR_PCT percent of
# its estimate at ERROR_CONFIDENCE percent confidence.
ERROR_PCT = "sampling.error.pct"
ERROR_CONFIDENCE = "sampling.error.confidence"
APPROX_AGGREGATE = "approx.aggregate"
APPROX_GROUP_BY = "approx.group.by"

#: How the stats-aware provider uses split statistics: ``off`` (exact
#: baseline behavior), ``prune`` (retire provably-empty splits up
#: front), ``rank`` (prune + order grabs by estimated matches), or
#: ``stratified`` (prune lazily at grab time — the grab stream over the
#: pool is identical to ``off``, so sampling is provably undisturbed).
STATS_MODES = ("off", "prune", "rank", "stratified")

# Hadoop job priority (§III-B motivates pairing low priority with a
# conservative policy). Same five levels as Hadoop's JobPriority.
JOB_PRIORITY = "mapred.job.priority"
PRIORITY_LEVELS = ("VERY_LOW", "LOW", "NORMAL", "HIGH", "VERY_HIGH")
DEFAULT_PRIORITY = "NORMAL"


def _parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("true", "1", "yes"):
        return True
    if lowered in ("false", "0", "no", ""):
        return False
    raise JobConfError(f"cannot interpret {text!r} as a boolean")


@dataclass
class JobConf:
    """Description of one MapReduce job.

    Parameters
    ----------
    name:
        Human-readable job name.
    input_path:
        DFS path of the input file.
    mapper_factory / reducer_factory:
        Zero-argument callables returning fresh Mapper/Reducer instances
        (one per task).
    num_reduce_tasks:
        The sampling job of the paper always uses 1.
    profile_outputs:
        Simulation hook: ``fn(split) -> int`` giving the number of map
        output records a task over ``split`` produces. Required to run a
        job on the simulated substrate with profile-only splits; ignored
        when real rows are available and executed.
    params:
        Hadoop-style string parameters, including the dynamic-job set.
    predicate:
        The compiled predicate object behind ``sampling.predicate``
        (which, string-only, carries just the name). Optional; the
        stats-aware provider needs the real tree to analyze splits.
    """

    name: str
    input_path: str
    mapper_factory: Callable[[], Mapper] | None = None
    reducer_factory: Callable[[], Reducer] | None = None
    num_reduce_tasks: int = 1
    profile_outputs: Callable[[InputSplit], int] | None = None
    params: dict[str, str] = field(default_factory=dict)
    user: str = "default"
    predicate: object | None = None

    def __post_init__(self) -> None:
        if not self.name:
            raise JobConfError("job name must be non-empty")
        if not self.input_path:
            raise JobConfError("input_path must be non-empty")
        if self.num_reduce_tasks < 0:
            raise JobConfError(
                f"num_reduce_tasks must be >= 0, got {self.num_reduce_tasks}"
            )

    # ------------------------------------------------------------------
    # String parameter access (Hadoop style)
    # ------------------------------------------------------------------
    def set(self, key: str, value: object) -> "JobConf":
        """Set a configuration parameter (stringified). Returns self for chaining."""
        self.params[key] = str(value)
        return self

    def get(self, key: str, default: str | None = None) -> str | None:
        return self.params.get(key, default)

    def get_bool(self, key: str, default: bool = False) -> bool:
        raw = self.params.get(key)
        if raw is None:
            return default
        return _parse_bool(raw)

    def get_int(self, key: str, default: int | None = None) -> int | None:
        raw = self.params.get(key)
        if raw is None:
            return default
        try:
            return int(raw)
        except ValueError:
            raise JobConfError(f"parameter {key}={raw!r} is not an integer") from None

    def get_float(self, key: str, default: float | None = None) -> float | None:
        raw = self.params.get(key)
        if raw is None:
            return default
        try:
            value = float(raw)
        except ValueError:
            raise JobConfError(f"parameter {key}={raw!r} is not a number") from None
        if value != value or value in (float("inf"), float("-inf")):
            raise JobConfError(f"parameter {key}={raw!r} must be finite")
        return value

    # ------------------------------------------------------------------
    # Dynamic-job parameters (the paper's JobConf extension)
    # ------------------------------------------------------------------
    @property
    def is_dynamic(self) -> bool:
        return self.get_bool(DYNAMIC_JOB, default=False)

    @property
    def policy_name(self) -> str | None:
        return self.get(DYNAMIC_JOB_POLICY)

    @property
    def input_provider_name(self) -> str | None:
        return self.get(DYNAMIC_INPUT_PROVIDER)

    @property
    def sample_size(self) -> int | None:
        return self.get_int(SAMPLE_SIZE)

    @property
    def error_pct(self) -> float | None:
        """Relative error target in percent, e.g. 5.0 for WITHIN 5% ERROR."""
        value = self.get_float(ERROR_PCT)
        if value is not None and value <= 0:
            raise JobConfError(f"{ERROR_PCT} must be positive, got {value}")
        return value

    @property
    def error_confidence(self) -> float:
        """Confidence level in percent for the error target (default 95)."""
        value = self.get_float(ERROR_CONFIDENCE, 95.0)
        assert value is not None
        if not 50.0 < value < 100.0:
            raise JobConfError(
                f"{ERROR_CONFIDENCE} must be in (50, 100), got {value}"
            )
        return value

    @property
    def stats_mode(self) -> str:
        value = self.get(STATS_MODE, "off") or "off"
        if value not in STATS_MODES:
            raise JobConfError(
                f"invalid {STATS_MODE}={value!r}; one of {STATS_MODES}"
            )
        return value

    @property
    def priority(self) -> str:
        value = self.get(JOB_PRIORITY, DEFAULT_PRIORITY)
        if value not in PRIORITY_LEVELS:
            raise JobConfError(
                f"invalid {JOB_PRIORITY}={value!r}; one of {PRIORITY_LEVELS}"
            )
        return value

    @property
    def priority_rank(self) -> int:
        """Numeric priority: higher runs first (VERY_HIGH=4 .. VERY_LOW=0)."""
        return PRIORITY_LEVELS.index(self.priority)

    def validate_dynamic(self) -> None:
        """Check that a dynamic job names its policy and provider."""
        if not self.is_dynamic:
            return
        if not self.policy_name:
            raise JobConfError(
                f"dynamic job {self.name!r} must set {DYNAMIC_JOB_POLICY}"
            )
        if not self.input_provider_name:
            raise JobConfError(
                f"dynamic job {self.name!r} must set {DYNAMIC_INPUT_PROVIDER}"
            )

    def copy(self) -> "JobConf":
        """A deep-enough copy: params dict is cloned, factories shared."""
        return JobConf(
            name=self.name,
            input_path=self.input_path,
            mapper_factory=self.mapper_factory,
            reducer_factory=self.reducer_factory,
            num_reduce_tasks=self.num_reduce_tasks,
            profile_outputs=self.profile_outputs,
            params=dict(self.params),
            user=self.user,
            predicate=self.predicate,
        )
