"""Error-bounded aggregation as a MapReduce job.

Map side: evaluate the predicate on each record and fold every match
into the split's per-group ``(count, sum)`` totals, in row order; at
``cleanup`` the task emits one ``(group_key, (count, sum))`` pair per
group (Hadoop's in-mapper combining). A match adds its aggregated
column's value for SUM/AVG and ``0.0`` for COUNT(*). As in SQL, SUM and
AVG ignore NULLs: a match whose aggregated value is NULL adds nothing,
while COUNT(*) counts every match, and a group with no counted match
emits nothing. No cap: unlike Algorithm 1's k-limit, every match in a
grabbed split contributes to the estimate.

Reduce side: one task adds each group's per-split totals into exact
``{count, sum}`` totals over the *scanned* splits. The statistical
answer itself lives with the estimator of
:class:`~repro.approx.demand.AccuracyDemand` (fed each split's totals
via ``observe_split``); :func:`finalize_rows` joins the
two and cross-checks that the reducer's totals equal the estimator's —
a cheap end-to-end invariant that either side would fail loudly if the
observation plumbing dropped or duplicated a split.
"""

from __future__ import annotations

import math
from typing import Any, Mapping, Sequence

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
from repro.scan.codegen import compile_batch_matcher


class ApproxAggregationMapper(Mapper):
    """Fold predicate matches into per-group ``(count, sum)`` totals.

    Emits one ``(group_key, (count, sum))`` pair per group at
    ``cleanup``; the group key is the GROUP BY value, or None. It has no
    shippable scan-task spec, so the process executor runs it inline:
    on 500-row partitions and in one-shot ``repro query`` runs, folding
    in worker processes was slower than folding in process (DESIGN
    §8b, "Fallback").
    """

    def __init__(
        self,
        predicate: Predicate,
        spec: AggregateSpec,
        group_by: str | None = None,
    ) -> None:
        self._predicate = predicate
        self._aggregate = (spec.column, group_by)
        self._batch_matcher = None
        self._totals: dict = {}

    def setup(self, context: MapContext) -> None:
        self._totals = {}

    def run_batch(self, batch, context: MapContext) -> bool:
        if self._batch_matcher is None:
            self._batch_matcher = compile_batch_matcher(self._predicate)
        hits: list[int] = []
        columns = batch.columns
        scanned = self._batch_matcher(
            columns, batch.start, batch.stop, None, hits.append
        )
        context.records_read += scanned
        self._fold(columns, hits)
        return False

    def cleanup(self, context: MapContext) -> None:
        context.outputs.extend(
            (group, (count, total)) for group, (count, total) in self._totals.items()
        )

    def _fold(self, columns: Mapping[str, Sequence], hits: Sequence[int]) -> None:
        """Add the matches at row indices ``hits`` of ``columns`` (a scan
        view) to the split's totals, group -> ``[count, sum]``.

        Without a value column (COUNT(*)) each match adds ``0.0``;
        without a group column every match falls in group None. A NULL
        value is skipped, as SQL's SUM and AVG skip it, so a group with
        no counted match gets no entry. Matches are added in ascending
        row order, each as ``count + 1`` and ``sum + float(value)`` from
        ``(0, 0.0)``: plain float addition, never ``sum()`` (compensated
        from Python 3.12) or ``math.fsum``, so the totals are the floats
        that folding one ``(group, value)`` pair per match gave.
        """
        value_column, group_column = self._aggregate
        values = columns[value_column] if value_column is not None else None
        groups = columns[group_column] if group_column is not None else None
        totals = self._totals
        get = totals.get
        for index in hits:
            value = values[index] if values is not None else 0.0
            if value is None:
                continue
            group = groups[index] if groups is not None else None
            entry = get(group)
            if entry is None:
                entry = totals[group] = [0, 0.0]
            entry[0] += 1
            entry[1] += float(value)


class ApproxAggregationReducer(Reducer):
    """Add each group's per-split totals, in task order."""

    def reduce(self, key: Any, values: list, context: ReduceContext) -> None:
        count, total = 0, 0.0
        for split_count, split_sum in values:
            count += split_count
            total += split_sum
        context.emit(key, {"count": count, "sum": total})


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
