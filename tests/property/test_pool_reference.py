"""Split pools grab exactly what the remove-by-rebuild ``take`` grabbed.

``SplitPool.take`` used to rebuild ``remaining`` around the ids it drew;
it now samples positions and deletes them. The reference below is the
old implementation, kept verbatim in behaviour, and every pool's grab
sequence must match it over many seeds, pool sizes and grab counts.
"""

import math
import random
from dataclasses import dataclass

import pytest

from repro.core.pool import RankedPool, SplitPool, StratifiedPool


@dataclass(frozen=True)
class FakeSplit:
    split_id: str


class ReferencePool:
    """The pools' grabs as the rebuild-by-id ``take`` made them."""

    def __init__(self, splits, rng, *, estimates=None, prunable=None):
        self.remaining = list(splits)
        self.rng = rng
        self.estimates = estimates
        self.prunable = None if prunable is None else set(prunable)
        self.pruned = 0

    def _estimate(self, split):
        mean = sum(self.estimates.values()) / len(self.estimates)
        return self.estimates.get(split.split_id, mean)

    def _choose(self, count):
        if self.estimates is not None:
            return sorted(self.remaining, key=self._estimate, reverse=True)[:count]
        return self.rng.sample(self.remaining, count)

    def _take_all(self):
        taken, self.remaining = self.remaining, []
        self.rng.shuffle(taken)
        if self.estimates is not None:
            taken.sort(key=self._estimate, reverse=True)
        return taken

    def _take(self, count):
        if count <= 0 or not self.remaining:
            return []
        if count >= len(self.remaining):
            return self._take_all()
        taken = self._choose(int(count))
        taken_ids = {split.split_id for split in taken}
        self.remaining = [
            split for split in self.remaining if split.split_id not in taken_ids
        ]
        return taken

    def _retire(self, taken):
        kept = []
        for split in taken:
            if split.split_id in self.prunable:
                self.prunable.discard(split.split_id)
                self.pruned += 1
            else:
                kept.append(split)
        return kept

    def take(self, count):
        if self.prunable is None:
            return self._take(count)
        while True:
            taken = self._take(count)
            if not taken:
                return []
            kept = self._retire(taken)
            if kept:
                return kept

    def take_all(self):
        taken = self._take_all()
        return taken if self.prunable is None else self._retire(taken)


SIZES = (1, 2, 5, 21, 22, 60, 85, 86, 300, 1024)


def _counts(draw: random.Random, size: int):
    """A grab-count schedule: small, fractional, large, zero and inf."""
    counts = []
    for _ in range(12):
        roll = draw.random()
        if roll < 0.05:
            counts.append(math.inf)
        elif roll < 0.1:
            counts.append(0)
        elif roll < 0.2:
            counts.append(draw.uniform(0.5, 6.0))
        elif roll < 0.3:
            counts.append(draw.randint(size // 2 + 1, size + 1))
        else:
            counts.append(draw.randint(1, max(1, size // 8)))
    return counts


def _pools(kind: str, size: int, seed: int):
    splits = [FakeSplit(f"/f:{i}") for i in range(size)]
    layout = random.Random(f"layout:{seed}:{size}")
    if kind == "uniform":
        return (
            SplitPool(splits, random.Random(seed)),
            ReferencePool(splits, random.Random(seed)),
        )
    if kind == "ranked":
        # Few distinct estimates, some splits unranked: ties and the
        # mean-estimate default both shape the order.
        estimates = {
            s.split_id: float(layout.randint(0, 4))
            for s in splits
            if layout.random() < 0.8
        } or {splits[0].split_id: 1.0}
        return (
            RankedPool(splits, random.Random(seed), dict(estimates), pruned=0, prior=None),
            ReferencePool(splits, random.Random(seed), estimates=estimates),
        )
    prunable = {s.split_id for s in splits if layout.random() < 0.4}
    return (
        StratifiedPool(splits, random.Random(seed), set(prunable)),
        ReferencePool(splits, random.Random(seed), prunable=prunable),
    )


@pytest.mark.parametrize("kind", ["uniform", "ranked", "stratified"])
@pytest.mark.parametrize("size", SIZES)
def test_grab_sequences_match_the_reference_take(kind, size):
    for seed in range(25):
        pool, reference = _pools(kind, size, seed)
        for count in _counts(random.Random(f"counts:{seed}:{size}"), size):
            assert pool.take(count) == reference.take(count)
            assert pool.remaining == reference.remaining
            assert len(pool) == len(reference.remaining)
            assert pool.pruned == reference.pruned
        assert pool.take_all() == reference.take_all()
        assert pool.pruned == reference.pruned
        # Both RNG streams were consumed identically.
        assert pool.rng.random() == reference.rng.random()
