"""Error-bounded aggregation as a MapReduce job.

Map side: evaluate the predicate on each record and emit
``(group_key, value)`` for every match — ``value`` is the aggregated
column's value for SUM/AVG and ``0.0`` for COUNT(*), where the emission
itself is the observation. As in SQL, SUM and AVG ignore NULLs: a match
whose aggregated value is NULL emits nothing, while COUNT(*) counts
every match. No cap: unlike Algorithm 1's k-limit, every match in a
grabbed split contributes to the estimate.

Reduce side: one task folds each group's candidates into exact
``{count, sum}`` totals over the *scanned* splits. The statistical
answer itself lives with the estimator of
:class:`~repro.approx.demand.AccuracyDemand` (fed per-split via
``observe_split``); :func:`finalize_rows` joins the
two and cross-checks that the reducer's totals equal the estimator's —
a cheap end-to-end invariant that either side would fail loudly if the
observation plumbing dropped or duplicated a split.
"""

from __future__ import annotations

import math
from typing import Any

from repro.approx.estimators import AggregateSpec
from repro.core.sampling_job import _split_matches
from repro.data.predicates import Predicate
from repro.dfs.split import InputSplit
from repro.engine.jobconf import (
    APPROX_AGGREGATE,
    APPROX_GROUP_BY,
    DYNAMIC_INPUT_PROVIDER,
    DYNAMIC_JOB,
    DYNAMIC_JOB_POLICY,
    ERROR_CONFIDENCE,
    ERROR_PCT,
    SAMPLING_PREDICATE,
    JobConf,
)
from repro.engine.mapreduce import MapContext, Mapper, ReduceContext, Reducer
from repro.errors import JobConfError, JobError
from repro.scan.codegen import compile_batch_matcher, compile_row_matcher


class ApproxAggregationMapper(Mapper):
    """Emit ``(group_key, value)`` for every predicate match.

    The emitted key varies per row (the GROUP BY value, or None), so
    this mapper has no shippable scan-task spec — the process executor
    falls back to in-process execution, which is always correct.
    """

    def __init__(
        self,
        predicate: Predicate,
        spec: AggregateSpec,
        group_by: str | None = None,
    ) -> None:
        self._predicate = predicate
        self._spec = spec
        self._group_by = group_by
        self._match = predicate.matches
        self._batch_matcher = None

    def prepare_scan(self, mode: str) -> None:
        if mode != "interpreted":
            self._match = compile_row_matcher(self._predicate)

    def _emit_row(self, row: Any, context: MapContext) -> None:
        value = row[self._spec.column] if self._spec.column is not None else 0.0
        if value is None:
            return  # SUM/AVG skip NULLs
        group = row[self._group_by] if self._group_by is not None else None
        context.emit(group, float(value))

    def map(self, key: Any, value: Any, context: MapContext) -> None:
        if self._match(value):
            self._emit_row(value, context)

    def run_batch(self, batch, context: MapContext) -> bool:
        if self._batch_matcher is None:
            self._batch_matcher = compile_batch_matcher(self._predicate)
        hits: list[int] = []
        scanned = self._batch_matcher(
            batch.columns, batch.start, batch.stop, None, hits.append
        )
        context.records_read += scanned
        group_col = (
            batch.columns[self._group_by] if self._group_by is not None else None
        )
        value_col = (
            batch.columns[self._spec.column] if self._spec.column is not None else None
        )
        for index in hits:
            value = value_col[index] if value_col is not None else 0.0
            if value is None:
                continue  # SUM/AVG skip NULLs
            group = group_col[index] if group_col is not None else None
            context.emit(group, float(value))
        return False


class ApproxAggregationReducer(Reducer):
    """Fold each group's emitted values into exact sample totals."""

    def reduce(self, key: Any, values: list, context: ReduceContext) -> None:
        context.emit(key, {"count": len(values), "sum": sum(values)})


def make_approx_conf(
    *,
    name: str,
    input_path: str,
    predicate: Predicate,
    aggregate: AggregateSpec | str,
    error_pct: float,
    confidence_pct: float = 95.0,
    group_by: str | None = None,
    policy_name: str = "LA",
    provider_name: str = "accuracy",
    fallback_selectivity: float | None = None,
    user: str = "default",
) -> JobConf:
    """An error-bounded aggregation job over the accuracy provider.

    Always dynamic: the whole point is stopping early once the interval
    is tight. ``fallback_selectivity`` serves profile-only simulation
    splits exactly as in :func:`make_scan_conf` (ungrouped COUNT only —
    profiles carry no values to aggregate).
    """
    spec = (
        aggregate if isinstance(aggregate, AggregateSpec)
        else AggregateSpec.parse(aggregate)
    )
    if error_pct <= 0:
        raise JobConfError(f"error_pct must be positive, got {error_pct}")
    conf = JobConf(
        name=name,
        input_path=input_path,
        mapper_factory=lambda: ApproxAggregationMapper(predicate, spec, group_by),
        reducer_factory=ApproxAggregationReducer,
        num_reduce_tasks=1,
        profile_outputs=_approx_profile(predicate, fallback_selectivity),
        user=user,
        predicate=predicate,
    )
    conf.set(SAMPLING_PREDICATE, predicate.name)
    conf.set(APPROX_AGGREGATE, spec.serialize())
    if group_by is not None:
        conf.set(APPROX_GROUP_BY, group_by)
    conf.set(ERROR_PCT, error_pct)
    conf.set(ERROR_CONFIDENCE, confidence_pct)
    conf.set(DYNAMIC_JOB, "true")
    conf.set(DYNAMIC_JOB_POLICY, policy_name)
    conf.set(DYNAMIC_INPUT_PROVIDER, provider_name)
    return conf


def _approx_profile(predicate: Predicate, fallback_selectivity: float | None):
    """Profile-mode map output: every match in the split, uncapped."""

    def outputs(split: InputSplit) -> int:
        return _split_matches(
            split, predicate, fallback_selectivity=fallback_selectivity
        )

    return outputs


def finalize_rows(
    output_data: list[tuple[Any, Any]] | None, approx: dict
) -> list[dict]:
    """Join reducer totals with the provider's estimates into answer rows.

    Cross-checks that both paths saw the same data: the reducer's exact
    per-group ``{count, sum}`` over scanned splits must equal the
    estimator's ``sample_count`` / ``sample_sum``. A mismatch means a
    split was dropped or double-counted somewhere between the map output
    and the provider's observe hook — an integration bug worth a crash.
    """
    reduced: dict[str, dict] = {}
    for group, totals in output_data or []:
        reduced[str(group)] = totals
    rows: list[dict] = []
    for entry in approx["groups"]:
        key = str(entry["group"])
        totals = reduced.pop(key, None)
        if totals is not None:
            if totals["count"] != entry["sample_count"] or not math.isclose(
                totals["sum"], entry["sample_sum"], rel_tol=1e-9, abs_tol=1e-9
            ):
                raise JobError(
                    f"approx group {key!r}: reducer saw "
                    f"({totals['count']}, {totals['sum']}) but the estimator "
                    f"observed ({entry['sample_count']}, {entry['sample_sum']})"
                )
        elif output_data is not None and entry["sample_count"] > 0:
            raise JobError(
                f"approx group {key!r}: estimator observed "
                f"{entry['sample_count']} matches the reducer never saw"
            )
        rows.append(
            {
                "group": entry["group"],
                "aggregate": approx["aggregate"],
                "estimate": entry["estimate"],
                "half_width": entry["half_width"],
                "confidence_pct": approx["confidence_pct"],
                "n_splits": entry["n_splits"],
                "total_splits": approx["total_splits"],
                "method": entry["method"],
            }
        )
    if reduced:
        raise JobError(
            f"approx: reducer produced groups the estimator never observed: "
            f"{sorted(reduced)}"
        )
    return rows
