"""The log-bucket histogram behind every snapshot's distributions.

Counts are plain integer attributes on the object that owns the fact
(``Job``, ``ClusterMetrics``); each scope has one function that builds
its snapshot from them once, in the shape ``{name: {"kind": ...,
"value": ...}}`` sorted by name (:func:`metric`), which trace export and
``repro metrics`` read. This module holds what those functions and the
telemetry hub share: the :class:`Histogram` that answers a
distribution's quantiles.

Design constraints, in force everywhere this module is used:

* **Picklable.** Snapshots travel inside ``JobResult`` through the
  sweep engine's ``ProcessPoolExecutor``, so there are no locks,
  lambdas, or open files here — plain attributes only.
* **Deterministic on the sim substrate.** Job- and cluster-scoped
  snapshots hold only counts and simulated-time values. Wall-clock
  readings live in trace span events, which are never part of job
  output.
"""

from __future__ import annotations

import math
from typing import Iterable

from repro.errors import ReproError


class MetricsError(ReproError):
    """Invalid metric usage (a non-finite observation, a bad quantile)."""


#: Log-bucket resolution: buckets per decade of value. 20 per decade
#: means consecutive bucket bounds differ by ~12%, so any reported
#: quantile is within ~6% (half a bucket) of the true sample quantile.
BUCKETS_PER_DECADE = 20

#: Bucket indices are clamped into [-_BUCKET_CLAMP, _BUCKET_CLAMP]
#: (1e-20 .. 1e+20), bounding a histogram at 801 buckets plus the
#: non-positive underflow bucket no matter what flows through it.
_BUCKET_CLAMP = 20 * BUCKETS_PER_DECADE

#: Quantiles carried in every snapshot (and rendered by ``repro metrics``).
SNAPSHOT_QUANTILES = (("p50", 0.50), ("p95", 0.95), ("p99", 0.99))


def metric(kind: str, value) -> dict:
    """One snapshot entry: ``kind`` is counter, gauge or histogram."""
    return {"kind": kind, "value": value}


class Histogram:
    """Summary statistics plus bounded log-bucket quantile estimation.

    Stores count/sum/min/max and a bounded dict of logarithmic buckets
    rather than raw samples, so its size stays bounded no matter how
    many observations flow through it. Positive values land in bucket
    ``floor(log10(v) * BUCKETS_PER_DECADE)`` (clamped); zero and negative
    values share one underflow bucket. :meth:`quantile` walks the buckets
    and answers within half a bucket width (~6% relative error), clamped
    to the observed ``[min, max]``.
    """

    __slots__ = ("name", "count", "total", "min", "max", "buckets", "underflow")

    def __init__(self, name: str, values: Iterable[int | float] = ()) -> None:
        self.name = name
        self.count = 0
        self.total = 0.0
        self.min = math.inf
        self.max = -math.inf
        self.buckets: dict[int, int] = {}
        self.underflow = 0
        for value in values:
            self.observe(value)

    def observe(self, value: int | float) -> None:
        if not math.isfinite(value):
            raise MetricsError(
                f"histogram {self.name!r} observation must be finite (got {value})"
            )
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        if value <= 0:
            self.underflow += 1
            return
        index = math.floor(math.log10(value) * BUCKETS_PER_DECADE)
        if index < -_BUCKET_CLAMP:
            index = -_BUCKET_CLAMP
        elif index > _BUCKET_CLAMP:
            index = _BUCKET_CLAMP
        self.buckets[index] = self.buckets.get(index, 0) + 1

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> float | None:
        """Estimated ``q``-quantile of the observed values (None if empty).

        The underflow bucket (values <= 0) is represented by the observed
        minimum; a positive bucket by its geometric midpoint. The result
        is clamped into ``[min, max]``, so single-value histograms answer
        exactly.
        """
        if not 0.0 <= q <= 1.0:
            raise MetricsError(f"quantile must be in [0, 1], got {q}")
        if not self.count:
            return None
        # Rank of the q-quantile, 1-based: the ceil(q * count)-th smallest.
        rank = max(1, math.ceil(q * self.count))
        seen = self.underflow
        if rank <= seen:
            return self.min if self.min <= 0 else 0.0
        for index in sorted(self.buckets):
            seen += self.buckets[index]
            if rank <= seen:
                midpoint = 10.0 ** ((index + 0.5) / BUCKETS_PER_DECADE)
                return min(max(midpoint, self.min), self.max)
        return self.max  # pragma: no cover - rank <= count by construction

    def quantiles(self) -> dict[str, float | None]:
        """The standard snapshot quantiles (p50/p95/p99), None when empty."""
        return {key: self.quantile(q) for key, q in SNAPSHOT_QUANTILES}

    def snapshot(self) -> dict:
        if not self.count:
            return {
                "count": 0, "total": 0.0, "min": None, "max": None, "mean": None,
                **self.quantiles(),
            }
        return {
            "count": self.count,
            "total": self.total,
            "min": self.min,
            "max": self.max,
            "mean": self.mean,
            **self.quantiles(),
        }
