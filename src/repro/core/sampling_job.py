"""Predicate-based sampling as a MapReduce job (paper §II-B).

Algorithm 1 (map): evaluate the predicate on each record; output up to k
matching records under a single dummy key. Each map task caps its own
output at k because, processing its partition in isolation, it must
assume no other task finds anything.

Algorithm 2 (reduce): the single dummy key funnels every candidate to one
reduce task, which outputs the first k values (all of them if fewer).

The JobConf builders attach the dynamic-job parameters of §IV and the
profile-output functions that let the same job run on metadata-only
splits in the simulated substrate.
"""

from __future__ import annotations

import math
import random
from typing import Any

from repro.data.predicates import Predicate
from repro.data.record import project
from repro.dfs.split import InputSplit
from repro.engine.jobconf import (
    DYNAMIC_INPUT_PROVIDER,
    DYNAMIC_JOB,
    DYNAMIC_JOB_POLICY,
    SAMPLE_SIZE,
    SAMPLING_PREDICATE,
    STATS_MODE,
    STATS_MODES,
    JobConf,
)
from repro.engine.mapreduce import MapContext, Mapper, ReduceContext, Reducer
from repro.errors import JobConfError
from repro.scan.codegen import (
    batch_matcher_source,
    compile_batch_matcher,
    compile_row_matcher,
)

DUMMY_KEY = "k_dummy"
"""The single intermediate key shared by all sampling map output."""


class SamplingMapper(Mapper):
    """Algorithm 1: emit up to ``k`` predicate-matching records.

    The record loop stops scanning the moment the task's own ``k`` is
    reached — exactly Algorithm 1's premise that a task processing its
    partition in isolation needs at most ``k`` matches; any further rows
    cannot change its output. ``records_read`` therefore reflects only
    rows actually scanned, which the Input Provider's selectivity
    estimator consumes. All three scan modes (interpreted / compiled /
    batch) share this semantics and produce byte-identical output.
    """

    def __init__(
        self,
        predicate: Predicate,
        k: int,
        columns: tuple[str, ...] | None = None,
    ) -> None:
        if k <= 0:
            raise JobConfError(f"sample size must be positive, got {k}")
        self._predicate = predicate
        self._k = k
        self._columns = columns
        self._found_records = 0
        self._match = predicate.matches
        self._batch_matcher = None

    def prepare_scan(self, mode: str) -> None:
        if mode == "compiled":
            self._match = compile_row_matcher(self._predicate)

    def scan_task_spec(self):
        from repro.scan.proc import ScanTaskSpec

        source, namespace = batch_matcher_source(self._predicate)
        return ScanTaskSpec(
            source=source,
            namespace=namespace,
            limit=self._k,
            columns=self._columns,
            fixed_key=DUMMY_KEY,
        )

    def map(self, key: Any, value: Any, context: MapContext) -> None:
        if self._found_records < self._k and self._match(value):
            self._found_records += 1
            output = (
                project(value, self._columns) if self._columns is not None else value
            )
            context.emit(DUMMY_KEY, output)

    def run(self, records, context: MapContext) -> None:
        self.setup(context)
        k = self._k
        match = self._match
        columns = self._columns
        for _key, value in records:
            context.records_read += 1
            if match(value):
                self._found_records += 1
                context.emit(
                    DUMMY_KEY,
                    project(value, columns) if columns is not None else value,
                )
                if self._found_records >= k:
                    break  # LIMIT short-circuit: stop scanning mid-split
        self.cleanup(context)

    def run_batch(self, batch, context: MapContext) -> bool:
        if self._batch_matcher is None:
            self._batch_matcher = compile_batch_matcher(self._predicate)
        remaining = self._k - self._found_records
        if remaining <= 0:
            return True
        hits: list[int] = []
        scanned = self._batch_matcher(
            batch.columns, batch.start, batch.stop, remaining, hits.append
        )
        context.records_read += scanned
        columns = self._columns
        for index in hits:
            context.emit(DUMMY_KEY, batch.row(index, columns))
        self._found_records += len(hits)
        return self._found_records >= self._k


class SamplingReducer(Reducer):
    """Algorithm 2: pass through the first ``k`` candidate values."""

    def __init__(self, k: int) -> None:
        if k <= 0:
            raise JobConfError(f"sample size must be positive, got {k}")
        self._k = k

    def reduce(self, key: Any, values: list, context: ReduceContext) -> None:
        for value in values[: self._k]:
            context.emit(key, value)


class ReservoirSamplingReducer(Reducer):
    """The paper's footnote variant: "One could do a 'random' k instead,
    to get more random results, in cases where more randomness is
    desired."

    Uses Vitter's Algorithm R over the candidate list, so every candidate
    the map phase surfaced has equal probability of entering the final
    sample — removing the head bias of taking the *first* k (candidates
    from earlier-finishing map tasks win under Algorithm 2).
    """

    def __init__(self, k: int, rng: random.Random | None = None) -> None:
        if k <= 0:
            raise JobConfError(f"sample size must be positive, got {k}")
        self._k = k
        self._rng = rng or random.Random(0)

    def reduce(self, key: Any, values: list, context: ReduceContext) -> None:
        reservoir: list = []
        for index, value in enumerate(values):
            if index < self._k:
                reservoir.append(value)
            else:
                slot = self._rng.randint(0, index)
                if slot < self._k:
                    reservoir[slot] = value
        for value in reservoir:
            context.emit(key, value)


class ScanMapper(Mapper):
    """Select-project mapper for the Non-Sampling workload class (§V-E):
    emits every matching record, projected, with no cap."""

    def __init__(
        self, predicate: Predicate, columns: tuple[str, ...] | None = None
    ) -> None:
        self._predicate = predicate
        self._columns = columns
        self._match = predicate.matches
        self._batch_matcher = None

    def prepare_scan(self, mode: str) -> None:
        if mode == "compiled":
            self._match = compile_row_matcher(self._predicate)

    def scan_task_spec(self):
        from repro.scan.proc import ScanTaskSpec

        source, namespace = batch_matcher_source(self._predicate)
        return ScanTaskSpec(
            source=source,
            namespace=namespace,
            limit=None,
            columns=self._columns,
            fixed_key=None,
        )

    def map(self, key: Any, value: Any, context: MapContext) -> None:
        if self._match(value):
            output = (
                project(value, self._columns) if self._columns is not None else value
            )
            context.emit(key, output)

    def run_batch(self, batch, context: MapContext) -> bool:
        if self._batch_matcher is None:
            self._batch_matcher = compile_batch_matcher(self._predicate)
        hits: list[int] = []
        scanned = self._batch_matcher(
            batch.columns, batch.start, batch.stop, None, hits.append
        )
        context.records_read += scanned
        columns = self._columns
        for index in hits:
            context.emit(index, batch.row(index, columns))
        return False


# ---------------------------------------------------------------------------
# JobConf builders
# ---------------------------------------------------------------------------
def make_sampling_conf(
    *,
    name: str,
    input_path: str,
    predicate: Predicate,
    sample_size: int,
    policy_name: str | None = "LA",
    provider_name: str = "sampling",
    columns: tuple[str, ...] | None = None,
    user: str = "default",
    reservoir: bool = False,
    reservoir_seed: int = 0,
    stats_mode: str | None = None,
) -> JobConf:
    """A predicate-based sampling job.

    ``policy_name=None`` builds the job as a classic static job (all
    input up front) — useful for baselines that bypass the dynamic-job
    machinery entirely; the paper's 'Hadoop' policy is instead expressed
    as a dynamic job whose GrabLimit is infinite, matching §III-B.

    ``reservoir=True`` swaps Algorithm 2's first-k reduce for the
    paper-footnote reservoir variant (uniform over all candidates).

    ``stats_mode`` (off/prune/rank/stratified) picks the provider's
    split pool (:func:`repro.core.pool.split_pool`).
    """
    if sample_size <= 0:
        raise JobConfError(f"sample size must be positive, got {sample_size}")
    if stats_mode is not None and stats_mode not in STATS_MODES:
        raise JobConfError(
            f"invalid stats_mode={stats_mode!r}; one of {STATS_MODES}"
        )
    conf = JobConf(
        name=name,
        input_path=input_path,
        mapper_factory=lambda: SamplingMapper(predicate, sample_size, columns),
        reducer_factory=(
            (lambda: ReservoirSamplingReducer(sample_size, random.Random(reservoir_seed)))
            if reservoir
            else (lambda: SamplingReducer(sample_size))
        ),
        num_reduce_tasks=1,
        profile_outputs=_sampling_profile(predicate, sample_size),
        user=user,
        predicate=predicate,
    )
    conf.set(SAMPLE_SIZE, sample_size)
    conf.set(SAMPLING_PREDICATE, predicate.name)
    if stats_mode is not None:
        conf.set(STATS_MODE, stats_mode)
    if policy_name is not None:
        conf.set(DYNAMIC_JOB, "true")
        conf.set(DYNAMIC_JOB_POLICY, policy_name)
        conf.set(DYNAMIC_INPUT_PROVIDER, provider_name)
    return conf


def make_scan_conf(
    *,
    name: str,
    input_path: str,
    predicate: Predicate,
    columns: tuple[str, ...] | None = None,
    fallback_selectivity: float | None = None,
    user: str = "default",
) -> JobConf:
    """A static select-project job (the Non-Sampling class of §V-E).

    ``fallback_selectivity`` estimates map output for profile-only splits
    whose match counts were not controlled for ``predicate``.
    """
    return JobConf(
        name=name,
        input_path=input_path,
        mapper_factory=lambda: ScanMapper(predicate, columns),
        reducer_factory=None,
        num_reduce_tasks=0,
        profile_outputs=_scan_profile(predicate, fallback_selectivity),
        user=user,
        predicate=predicate,
    )


def _sampling_profile(predicate: Predicate, k: int):
    """Profile-mode map output: min(k, matches in split) — Algorithm 1's cap."""

    def outputs(split: InputSplit) -> int:
        return min(k, _split_matches(split, predicate, fallback_selectivity=None))

    return outputs


def _scan_profile(predicate: Predicate, fallback_selectivity: float | None):
    def outputs(split: InputSplit) -> int:
        return _split_matches(
            split, predicate, fallback_selectivity=fallback_selectivity
        )

    return outputs


def _split_matches(
    split: InputSplit, predicate: Predicate, *, fallback_selectivity: float | None
) -> int:
    counts = split.block.payload.match_counts
    if predicate.name in counts:
        return counts[predicate.name]
    if fallback_selectivity is not None:
        # Explicit half-up rounding: built-in round() rounds half to even
        # (banker's rounding), which at exact .5 boundaries rounds half
        # the cases *down* and systematically undercounts expected
        # matches across a sweep of profile-only splits.
        return math.floor(split.num_records * fallback_selectivity + 0.5)
    raise JobConfError(
        f"split {split.split_id} carries no match profile for predicate "
        f"{predicate.name!r} and no fallback selectivity was given; "
        "profile-mode execution cannot determine map output"
    )
