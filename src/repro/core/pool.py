"""Split pools: which unprocessed splits an Input Provider grabs next.

A pool owns a job's unprocessed splits and the provider's RNG. The
paper draws every grab uniformly at random (§IV). The other pools use
the split statistics in mmap dataset footers (zone maps + bloom
filters): splits :mod:`repro.scan.prune` proves empty for the job's
predicate are retired *without dispatch* and counted in ``pruned``,
which the audit folds into its splits-accounting invariant.
``sampling.stats.mode`` picks the pool (:func:`split_pool`):

``off``
    :class:`SplitPool` over every split; no stats read, no extra draws.
``prune``
    :class:`SplitPool` over the splits that may match. Pruning is sound,
    so the sample's distribution over matching records is unchanged.
``rank``
    :class:`RankedPool`: prune, then grab in descending order of the
    zone-map match estimate, which also seeds a selectivity ``prior``.
    Fastest time-to-k; grab order is no longer uniform.
``stratified``
    :class:`StratifiedPool`: the pool and RNG stream of ``off``, but a
    grabbed split that is provably empty is retired on the spot.
    Sampling stays provably uniform while empty splits skip the scan.

Splits without statistics (non-mmap layouts, version-1 files, sim
profiles) are never pruned, so every mode degrades to ``off`` on them.
"""

from __future__ import annotations

import math
import random
from typing import TYPE_CHECKING

from repro.dfs.split import InputSplit
from repro.errors import InputProviderError

if TYPE_CHECKING:  # pragma: no cover - type-only import, avoids a cycle
    from repro.engine.jobconf import JobConf


class SplitPool:
    """Uniformly random grabs from the unprocessed splits."""

    prior: tuple[float, float] | None = None
    """Zone-map evidence ``(matches, records)`` for a selectivity prior."""

    def __init__(
        self, splits: list[InputSplit], rng: random.Random, *, pruned: int = 0
    ) -> None:
        self.remaining = list(splits)
        self.rng = rng
        self.pruned = pruned
        """Cumulative splits retired via statistics without dispatch."""

    def __len__(self) -> int:
        return len(self.remaining)

    def take(self, count: float) -> list[InputSplit]:
        """Remove up to ``count`` splits.

        ``count`` may be ``inf``, equivalent to :meth:`take_all`. NaN is
        rejected — it compares false against everything, so it would
        silently select nothing.
        """
        if isinstance(count, float) and math.isnan(count):
            raise InputProviderError("grab count must not be NaN")
        if count <= 0 or not self.remaining:
            return []
        remaining = self.remaining
        if count >= len(remaining):
            return self.take_all()
        positions = self._choose(int(count))
        taken = [remaining[i] for i in positions]
        # Deleting by position, last first, keeps the survivors' order
        # and scans nothing in Python.
        for i in sorted(positions, reverse=True):
            del remaining[i]
        return taken

    def take_all(self) -> list[InputSplit]:
        """Remove every remaining split, in random order."""
        taken, self.remaining = self.remaining, []
        self.rng.shuffle(taken)
        return taken

    def _choose(self, count: int) -> list[int]:
        """Positions in ``remaining`` of the ``count`` splits (fewer than
        remain) :meth:`take` removes, in grab order.

        ``random.sample`` draws from ``len()`` and ``count`` alone and
        reads its population only by index, so sampling positions makes
        the same draws as sampling the splits.
        """
        return self.rng.sample(range(len(self.remaining)), count)


class RankedPool(SplitPool):
    """Grabs in descending order of zone-map estimated matches."""

    def __init__(
        self,
        splits: list[InputSplit],
        rng: random.Random,
        estimates: dict[str, float],
        *,
        pruned: int,
        prior: tuple[float, float] | None,
    ) -> None:
        super().__init__(splits, rng, pruned=pruned)
        self._estimates = estimates
        # Splits without stats cannot be ranked; give them the mean
        # estimate so they sort between the rich and the poor ones.
        self._unranked = sum(estimates.values()) / len(estimates)
        self.prior = prior

    def _estimate(self, split: InputSplit) -> float:
        return self._estimates.get(split.split_id, self._unranked)

    def take_all(self) -> list[InputSplit]:
        taken = super().take_all()
        taken.sort(key=self._estimate, reverse=True)
        return taken

    def _choose(self, count: int) -> list[int]:
        # Stable sort on the (insertion-ordered) pool: deterministic
        # ranking, best expected yield first.
        remaining = self.remaining
        return sorted(
            range(len(remaining)),
            key=lambda i: self._estimate(remaining[i]),
            reverse=True,
        )[:count]


class StratifiedPool(SplitPool):
    """Uniform grabs over every split; provably-empty ones retire when drawn."""

    def __init__(
        self, splits: list[InputSplit], rng: random.Random, prunable: set[str]
    ) -> None:
        super().__init__(splits, rng)
        self._prunable = prunable

    def take(self, count: float) -> list[InputSplit]:
        while True:
            taken = super().take(count)
            if not taken:
                return []
            kept = self._retire(taken)
            if kept:
                return kept
            # The whole draw was provably empty: retire it and draw
            # again (each round shrinks the pool, so this terminates)
            # instead of answering NO_INPUT and tripping the runner's
            # livelock guard.

    def take_all(self) -> list[InputSplit]:
        return self._retire(super().take_all())

    def _retire(self, taken: list[InputSplit]) -> list[InputSplit]:
        kept = []
        for split in taken:
            if split.split_id in self._prunable:
                self._prunable.discard(split.split_id)
                self.pruned += 1
            else:
                kept.append(split)
        return kept


def split_pool(
    splits: list[InputSplit], conf: "JobConf", rng: random.Random
) -> SplitPool:
    """The pool ``sampling.stats.mode`` selects for ``conf``'s predicate."""
    mode = conf.stats_mode
    predicate = conf.predicate
    if mode == "off" or predicate is None:
        return SplitPool(splits, rng)

    from repro.scan import prune

    test = prune.zone_test(predicate)
    prunable: set[str] = set()
    estimates: dict[str, float] = {}
    surveyed_rows = 0
    surveyed_matches = 0.0
    for split, stats in prune.iter_split_stats(splits):
        if stats is None:
            continue
        if not test(stats)[0]:
            prunable.add(split.split_id)
            continue
        if mode == "rank":
            estimate = prune.estimate_matches(test, stats)
            estimates[split.split_id] = estimate
            surveyed_rows += prune.partition_rows(stats)
            surveyed_matches += estimate

    if mode == "stratified":
        return StratifiedPool(splits, rng, prunable)
    kept = [split for split in splits if split.split_id not in prunable]
    if not estimates:
        return SplitPool(kept, rng, pruned=len(prunable))
    prior = None
    if surveyed_rows > 0 and surveyed_matches > 0 and math.isfinite(surveyed_matches):
        # One average split's worth of zone-map evidence: enough for the
        # first evaluations to bound their need, weak enough for observed
        # scan results to dominate quickly. Zero (or non-finite) evidence
        # is *not* a prior: a zero match prior would pin the estimate at
        # 0.0 — claiming certainty that nothing matches — instead of
        # leaving the estimator honestly uninformed until scans report.
        average_rows = surveyed_rows / len(estimates)
        prior = ((surveyed_matches / surveyed_rows) * average_rows, average_rows)
    return RankedPool(kept, rng, estimates, pruned=len(prunable), prior=prior)
