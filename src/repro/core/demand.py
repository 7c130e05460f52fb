"""Demand rules: when a job's input is complete, and how much more it needs.

A demand rule is an Input Provider's stopping rule (paper §IV). At each
evaluation it answers :meth:`Demand.complete` (END_OF_INPUT) and, if
not, :meth:`Demand.need`: more splits, ``inf`` when the need cannot be
bounded (the grab budget alone then governs growth), or ``None`` to
wait (NO_INPUT_AVAILABLE). :class:`LimitDemand` is the paper's rule
(stop at k matches), :class:`AllInput` Hadoop's processes-everything
model, and :class:`repro.approx.demand.AccuracyDemand` stops on
confidence-interval width.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

from repro.core.protocol import JobProgress
from repro.core.selectivity import SelectivityEstimator
from repro.errors import InputProviderError

if TYPE_CHECKING:  # pragma: no cover - type-only import, avoids a cycle
    from repro.core.pool import SplitPool
    from repro.engine.jobconf import JobConf


class Demand:
    """Base demand rule; built at ``initialize`` as ``cls(conf, pool)``."""

    upfront = False
    """True when the whole input is added at submission."""

    ci_state: dict | None = None
    """Interval snapshot attached to ``provider_evaluation`` trace events."""

    def __init__(self, conf: "JobConf", pool: "SplitPool") -> None:
        pass

    def complete(self, progress: JobProgress) -> bool:
        """Fold in this evaluation's progress; True once input is complete."""
        raise NotImplementedError

    def need(self, progress: JobProgress) -> float | None:
        """Additional splits wanted now, or None to wait for pending work."""
        raise NotImplementedError

    def observe_split(
        self, split_id: str, *, records: int, outputs: int, rows: list | None
    ) -> None:
        """One finished map task's output (no-op unless the rule estimates
        from per-split statistics)."""

    def summary(self) -> dict | None:
        """Final answer attached to the JobResult, if the rule has one."""
        return None


class AllInput(Demand):
    """Hadoop's classic model: all input up front, complete at submission."""

    upfront = True

    def complete(self, progress: JobProgress) -> bool:
        return True


class LimitDemand(Demand):
    """LIMIT k: stop at k matches; grab the splits covering the shortfall.

    1. If the completed map tasks have already produced >= k output
       tuples, input is complete.
    2. Otherwise estimate the predicate's selectivity from the records
       processed and matches found so far, discount the *expected*
       output of the splits already added but not yet finished, and
       derive the shortfall. If in-flight work is expected to cover it,
       wait.
    3. Otherwise convert the shortfall into a number of additional splits
       via the observed records-per-split.

    With no selectivity signal yet the need is unbounded, so the grab
    budget alone governs growth.
    """

    def __init__(self, conf: "JobConf", pool: "SplitPool") -> None:
        k = conf.sample_size
        if k is None or k <= 0:
            raise InputProviderError(
                f"sampling job {conf.name!r} must set a positive "
                "sampling.size parameter"
            )
        self.sample_size = k
        if pool.prior is None:
            self.estimator = SelectivityEstimator()
        else:
            matches, records = pool.prior
            self.estimator = SelectivityEstimator(
                prior_matches=matches, prior_records=records
            )

    def complete(self, progress: JobProgress) -> bool:
        self.estimator.observe_totals(
            progress.records_processed, progress.outputs_produced
        )
        return progress.outputs_produced >= self.sample_size

    def need(self, progress: JobProgress) -> float | None:
        expected_pending = self.estimator.expected_matches(progress.records_pending)
        shortfall = self.sample_size - progress.outputs_produced - expected_pending
        if shortfall <= 0 or self.wait_uninformed(progress):
            return None
        return self._needed_splits(progress, shortfall)

    def wait_uninformed(self, progress: JobProgress) -> bool:
        """Without a usable selectivity estimate the need cannot be
        bounded. While uninformed work is still in flight, "wait and
        see" — grabbing blindly every evaluation would queue unbounded,
        likely wasted, work behind splits whose outcome is unknown. Once
        nothing is pending, probing more input is the only way forward.
        """
        estimate = self.estimator.estimate
        return (estimate is None or estimate <= 0) and progress.records_pending > 0

    def _needed_splits(self, progress: JobProgress, shortfall: float) -> float:
        """Estimated number of additional splits covering ``shortfall`` matches.

        Uses the observed average records per completed split ("the Input
        Provider computes the expected number of records in each split",
        §IV). With no completed splits or a zero selectivity estimate the
        need is unbounded.
        """
        records_needed = self.estimator.records_needed(shortfall)
        if math.isinf(records_needed):
            return math.inf
        if progress.splits_completed <= 0 or progress.records_processed <= 0:
            return math.inf
        avg_records_per_split = progress.records_processed / progress.splits_completed
        return math.ceil(records_needed / avg_records_per_split)
