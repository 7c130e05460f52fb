"""Named metrics: counters, gauges, histograms, and a registry of them.

One :class:`MetricsRegistry` per scope (a job, a cluster, a benchmark
run). The registry replaces the ad-hoc integer fields that used to be
scattered across ``Job``, ``ClusterMetrics``, and the perf harness, and
gives every scope the same ``snapshot()`` shape for trace export.

Design constraints, in force everywhere this module is used:

* **Picklable.** Registries travel inside ``WorkloadResult`` through
  the sweep engine's ``ProcessPoolExecutor``, so there are no locks,
  lambdas, or open files here — plain attributes only.
* **Deterministic on the sim substrate.** Job- and cluster-scoped
  metrics hold only counts and simulated-time durations. Wall-clock
  readings live in trace span events, which are never part of job
  output.
* **Cheap when idle.** Metric objects are created on first use and
  updated with plain attribute arithmetic; the scan engine's per-row
  hot loop never touches a registry (tasks fold their totals in at
  completion, see DESIGN.md §9).
"""

from __future__ import annotations

import math
from typing import Iterator

from repro.errors import ReproError


class MetricsError(ReproError):
    """Invalid metric usage (name collisions across metric types, etc.)."""


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("name", "value")

    kind = "counter"

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def inc(self, amount: int | float = 1) -> None:
        # ``amount < 0`` alone would let NaN through (every comparison
        # against NaN is False) and one NaN poisons the sum forever.
        if not math.isfinite(amount):
            raise MetricsError(
                f"counter {self.name!r} increment must be finite (inc {amount})"
            )
        if amount < 0:
            raise MetricsError(f"counter {self.name!r} cannot decrease (inc {amount})")
        self.value += amount

    def snapshot(self) -> int | float:
        return self.value


class Gauge:
    """A value that can move both ways (pending splits, queue depth)."""

    __slots__ = ("name", "value")

    kind = "gauge"

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def set(self, value: int | float) -> None:
        self.value = value

    def inc(self, amount: int | float = 1) -> None:
        self.value += amount

    def dec(self, amount: int | float = 1) -> None:
        self.value -= amount

    def snapshot(self) -> int | float:
        return self.value


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


class Histogram:
    """Summary statistics plus bounded log-bucket quantile estimation.

    Stores count/sum/min/max and a bounded dict of logarithmic buckets
    rather than raw samples, so a registry's size stays bounded no matter
    how many observations flow through it. Positive values land in bucket
    ``floor(log10(v) * BUCKETS_PER_DECADE)`` (clamped); zero and negative
    values share one underflow bucket. :meth:`quantile` walks the buckets
    and answers within half a bucket width (~6% relative error), clamped
    to the observed ``[min, max]``.
    """

    __slots__ = ("name", "count", "total", "min", "max", "buckets", "underflow")

    kind = "histogram"

    def __init__(self, name: str) -> None:
        self.name = name
        self.count = 0
        self.total = 0.0
        self.min = math.inf
        self.max = -math.inf
        self.buckets: dict[int, int] = {}
        self.underflow = 0

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

    def merge(self, other: "Histogram") -> "Histogram":
        """Fold ``other``'s observations into this histogram; returns self.

        Log-bucket histograms are mergeable exactly: bucket counts add,
        min/max combine, and every quantile answered by the merged
        histogram is identical to the histogram that would have observed
        both streams directly (the property tests pin associativity and
        commutativity). This is what lets worker processes and the
        telemetry hub keep independent sketches and combine them
        losslessly.
        """
        self.count += other.count
        self.total += other.total
        if other.min < self.min:
            self.min = other.min
        if other.max > self.max:
            self.max = other.max
        self.underflow += other.underflow
        for index, count in other.buckets.items():
            self.buckets[index] = self.buckets.get(index, 0) + count
        return self

    def snapshot(self) -> dict:
        if not self.count:
            return {
                "count": 0, "total": 0.0, "min": None, "max": None, "mean": None,
                **{key: None for key, _q in SNAPSHOT_QUANTILES},
            }
        return {
            "count": self.count,
            "total": self.total,
            "min": self.min,
            "max": self.max,
            "mean": self.mean,
            **{key: self.quantile(q) for key, q in SNAPSHOT_QUANTILES},
        }


class MetricsRegistry:
    """A namespace of metrics, created lazily on first access.

    ``counter``/``gauge``/``histogram`` return the existing metric when
    the name is already registered — callers never need to cache metric
    handles, though hot paths may for speed. Requesting a name as the
    wrong kind raises :class:`MetricsError` instead of silently
    shadowing.
    """

    def __init__(self, *, scope: str = "") -> None:
        self.scope = scope
        self._metrics: dict[str, Counter | Gauge | Histogram] = {}

    def _get(self, name: str, cls):
        metric = self._metrics.get(name)
        if metric is None:
            metric = cls(name)
            self._metrics[name] = metric
        elif type(metric) is not cls:
            raise MetricsError(
                f"metric {name!r} is a {metric.kind}, not a {cls.kind}"
            )
        return metric

    def counter(self, name: str) -> Counter:
        return self._get(name, Counter)

    def gauge(self, name: str) -> Gauge:
        return self._get(name, Gauge)

    def histogram(self, name: str) -> Histogram:
        return self._get(name, Histogram)

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def __iter__(self) -> Iterator[Counter | Gauge | Histogram]:
        for name in sorted(self._metrics):
            yield self._metrics[name]

    def __len__(self) -> int:
        return len(self._metrics)

    def snapshot(self) -> dict:
        """Plain-dict view, sorted by name — stable for trace export.

        Shape: ``{name: {"kind": ..., "value": ...}}`` where ``value``
        is a number for counters/gauges and a stats dict for histograms.
        """
        return {
            name: {"kind": metric.kind, "value": metric.snapshot()}
            for name, metric in sorted(self._metrics.items())
        }
