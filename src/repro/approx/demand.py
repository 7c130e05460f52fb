"""The accuracy demand rule (ROADMAP item 2, EARL-style).

A demand rule (:mod:`repro.core.demand`) whose stopping rule is
statistical instead of cardinal: input is complete not when *k* matching
rows exist but when every aggregate group's confidence interval is tight
enough — half-width within ``sampling.error.pct`` percent of the
estimate at ``sampling.error.confidence`` percent confidence. Grabs stay
GrabLimit-capped and uniformly random, so the scanned prefix is a valid
cluster sample.

Decision procedure at each evaluation point:

1. If every group meets the error target (with at least a minimum number
   of observed splits, so a lucky two-split agreement cannot stop the
   job), input is complete. (With no unprocessed splits left it is
   complete too — the answer becomes exact once in-flight work lands.)
2. If work is still pending, wait — per-split totals from those maps are
   exactly the information the next decision needs.
3. Otherwise project how many more splits shrink the worst group's
   half-width to the target (SE scales ~ 1/sqrt(m)).

The population is the complete input, so the pool must stay uniform: a
job with ``sampling.stats.mode`` other than ``off`` is rejected, because
pruned splits would leave the finite-population correction's population
without entering the estimator.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

from repro.approx.estimators import (
    BOOTSTRAP_MIN_SPLITS,
    AggregateEstimator,
    AggregateSpec,
    GroupEstimate,
)
from repro.core.demand import Demand
from repro.core.protocol import JobProgress
from repro.engine.jobconf import APPROX_AGGREGATE, APPROX_GROUP_BY, STATS_MODE
from repro.errors import InputProviderError

if TYPE_CHECKING:  # pragma: no cover - type-only import
    from repro.core.pool import SplitPool
    from repro.engine.jobconf import JobConf

#: Never declare the target met before observing this many splits (or
#: the whole input, if smaller). Below it the interval estimates are too
#: fragile to certify anything.
MIN_SPLITS_TO_STOP = BOOTSTRAP_MIN_SPLITS


class AccuracyDemand(Demand):
    """Input is complete once every group's CI half-width <= error target."""

    def __init__(self, conf: "JobConf", pool: "SplitPool") -> None:
        error_pct = conf.error_pct
        if error_pct is None:
            raise InputProviderError(
                f"accuracy job {conf.name!r} must set a positive "
                "sampling.error.pct parameter"
            )
        aggregate = conf.get(APPROX_AGGREGATE)
        if not aggregate:
            raise InputProviderError(
                f"accuracy job {conf.name!r} must set {APPROX_AGGREGATE}"
            )
        if conf.stats_mode != "off":
            raise InputProviderError(
                f"accuracy job {conf.name!r} cannot use {STATS_MODE}="
                f"{conf.stats_mode!r}: pruned splits would drop out of the "
                "estimator's population"
            )
        self.spec = AggregateSpec.parse(aggregate)
        self.group_by = conf.get(APPROX_GROUP_BY) or None
        self.target_pct = error_pct
        # The complete input is the population; captured before any grab.
        total = len(pool)
        if total <= 0:
            raise InputProviderError(
                f"accuracy job {conf.name!r} has no input splits"
            )
        self.estimator = AggregateEstimator(
            self.spec,
            total_splits=total,
            confidence_pct=conf.error_confidence,
        )
        self._min_splits = min(total, MIN_SPLITS_TO_STOP)

    # ------------------------------------------------------------------
    # Observation: per-split aggregate totals
    # ------------------------------------------------------------------
    def observe_split(
        self, split_id: str, *, records: int, outputs: int, rows: list | None
    ) -> None:
        """Pass one finished map task's per-group totals to the estimator.

        ``rows`` are the task's map outputs — one ``(group_key, (count,
        sum))`` pair per group, already folded by the approx mapper in
        row order — and reach the estimator unchanged. Counter-only
        substrates (the simulator in profile mode) pass ``None``; that
        suffices for ungrouped COUNT, where the match count is the whole
        observation.
        """
        if rows is None:
            if self.spec.needs_values or self.group_by is not None:
                raise InputProviderError(
                    f"{self.spec} with group_by={self.group_by!r} needs "
                    "materialized map outputs; this substrate only reports "
                    "counters (ungrouped COUNT(*) is the supported shape)"
                )
            self.estimator.observe_split(split_id, {None: (outputs, 0.0)})
            return
        self.estimator.observe_split(split_id, dict(rows))

    # ------------------------------------------------------------------
    # Stopping rule
    # ------------------------------------------------------------------
    def complete(self, progress: JobProgress) -> bool:
        return self.target_met

    def need(self, progress: JobProgress) -> float | None:
        # In-flight work carries the very observations that will tighten
        # the interval; decide again once it lands.
        if progress.splits_pending > 0:
            return None
        return self._needed_splits()

    @property
    def target_met(self) -> bool:
        """Whether the stopping rule is satisfied right now."""
        if self.estimator.observed_splits < self._min_splits:
            return False
        return self.estimator.all_met(self.target_pct)

    def _needed_splits(self) -> float:
        """Estimated additional splits to close the worst group's gap.

        Standard error scales ~ sqrt((1/m - 1/N)); inverting that model
        for the target half-width gives the projected total
        ``m' = 1 / ((target/h)^2 * (1/m - 1/N) + 1/N)``. Keeping the
        finite-population correction in the inversion matters: near
        exhaustion the FPC shrinks the interval quickly, and the
        FPC-free projection ``m * (h/target)^2`` would routinely demand
        the whole input when a modest prefix suffices. Unknowable gaps
        (no interval yet) leave the need unbounded, so the GrabLimit
        alone governs growth — exactly the uninformed mode of the
        LIMIT-k demand.
        """
        m = self.estimator.observed_splits
        if m < self._min_splits:
            # Not allowed to stop yet: at minimum reach the floor.
            return float(self._min_splits - m)
        worst = self.estimator.worst(self.target_pct)
        if worst is None or worst.estimate is None or worst.half_width is None:
            return math.inf
        if worst.estimate == 0.0:
            return math.inf
        target = abs(worst.estimate) * (self.target_pct / 100.0)
        if target <= 0 or worst.half_width <= 0:
            return math.inf
        n = self.estimator.total_splits
        inv_ratio = target / worst.half_width  # < 1 while unmet
        coeff = inv_ratio * inv_ratio * max(0.0, 1.0 / m - 1.0 / n)
        if coeff <= 0:
            return math.inf
        needed_total = min(n, math.ceil(1.0 / (coeff + 1.0 / n)))
        return float(max(1, needed_total - m))

    # ------------------------------------------------------------------
    # Reporting: trace CI state and final summary
    # ------------------------------------------------------------------
    @property
    def ci_state(self) -> dict:
        """JSON-safe snapshot of the interval driving the stopping rule.

        Attached to every ``provider_evaluation`` trace event; the audit
        layer replays the stopping invariant from exactly these fields.
        Reports the *worst* group — the one the stopping rule waits on.
        """
        worst = self.estimator.worst(self.target_pct)
        state = {
            "aggregate": self.spec.serialize(),
            "n": self.estimator.observed_splits,
            "target_pct": self.target_pct,
            "confidence_pct": self.estimator.confidence_pct,
            "met": self.target_met,
            "estimate": None,
            "half_width": None,
        }
        if worst is not None:
            state["estimate"] = _json_safe(worst.estimate)
            state["half_width"] = _json_safe(worst.half_width)
            if self.group_by is not None:
                state["group"] = str(worst.group)
        return state

    def summary(self) -> dict:
        """Final per-group answer attached to the JobResult."""
        return {
            "aggregate": self.spec.serialize(),
            "group_by": self.group_by,
            "error_pct": self.target_pct,
            "confidence_pct": self.estimator.confidence_pct,
            "observed_splits": self.estimator.observed_splits,
            "total_splits": self.estimator.total_splits,
            "target_met": self.target_met,
            "groups": [_group_dict(est) for est in self.estimator.estimates()],
        }


def _json_safe(value: float | None) -> float | None:
    if value is None or not math.isfinite(value):
        return None
    return value


def _group_dict(est: GroupEstimate) -> dict:
    return {
        "group": est.group,
        "estimate": _json_safe(est.estimate),
        "half_width": _json_safe(est.half_width),
        "n_splits": est.n_splits,
        "sample_count": est.sample_count,
        "sample_sum": est.sample_sum,
        "method": est.method,
    }
