"""Error-bounded aggregation as a MapReduce job.

Map side: the shared scan finds the split's matches, and the mapper's
``outputs`` folds them into per-group ``(count, sum)`` totals, in row
order, emitting one ``(group_key, (count, sum))`` pair per group
(Hadoop's in-mapper combining). A match adds its aggregated
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
from typing import Any

from repro.approx.estimators import AggregateSpec
from repro.core.sampling_job import ScanMapper, _split_matches
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
from repro.engine.mapreduce import ReduceContext, Reducer
from repro.errors import JobConfError, JobError


class ApproxAggregationMapper(ScanMapper):
    """Fold predicate matches into per-group ``(count, sum)`` totals.

    Scans as :class:`~repro.core.sampling_job.ScanMapper` does, uncapped,
    and emits one ``(group_key, (count, sum))`` pair per group; the group
    key is the GROUP BY value, or None.
    """

    def __init__(
        self,
        predicate: Predicate,
        spec: AggregateSpec,
        group_by: str | None = None,
    ) -> None:
        super().__init__(predicate)
        self._aggregate = (spec.column, group_by)

    def scan_task_spec(self):
        # No shippable spec, so the process executor runs this mapper
        # inline: on 500-row partitions and in one-shot ``repro query``
        # runs, folding in worker processes was slower than folding in
        # process (DESIGN §8b, "Fallback").
        return None

    def outputs(self, store, hits: list[int]) -> list[tuple[Any, Any]]:
        """The matches at row indices ``hits`` folded into the split's
        totals: one ``(group, (count, sum))`` pair per group, in
        first-seen order.

        The store is read through its scan view, as the scan read it.
        Without a value column (COUNT(*)) each match adds ``0.0``;
        without a group column every match falls in group None. A NULL
        value is skipped, as SQL's SUM and AVG skip it, so a group with
        no counted match gets no entry. Matches are added in ascending
        row order, each as ``count + 1`` and ``sum + float(value)`` from
        ``(0, 0.0)``: plain float addition, never ``sum()`` (compensated
        from Python 3.12) or ``math.fsum``, so the totals are the floats
        that folding one ``(group, value)`` pair per match gave.
        """
        if not hits:
            return []  # an empty partition's store has no columns to look up
        value_column, group_column = self._aggregate
        columns = store.scan_columns(store.num_rows)
        values = columns[value_column] if value_column is not None else None
        groups = columns[group_column] if group_column is not None else None
        totals: dict = {}
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
        return [(group, (count, total)) for group, (count, total) in totals.items()]


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
