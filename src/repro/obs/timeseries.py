"""Windowed time series for live telemetry.

The post-hoc observability layers (trace, analyze, report) see a run
only after it finishes; the :class:`~repro.obs.hub.TelemetryHub` needs
bounded-memory structures it can update on every event *while* jobs run
and read from other threads (the HTTP exporter, ``repro top``).
:class:`TimeSeries` is a fixed-capacity ring buffer of ``(t, value)``
points: appends are O(1), memory is bounded by ``capacity`` no matter
how long the run, and readers get a consistent chronological copy.
:meth:`~TimeSeries.rates` turns a cumulative-counter series into
per-second deltas (the rows/s sparkline input). The hub's latency
quantiles come from the log-bucket
:class:`~repro.obs.metrics.Histogram`, whose bounded buckets answer
p50/p95/p99 at any instant with ~6% relative rank error.

Everything here is plain data plus arithmetic — no locks (the hub
serializes access) and no wall-clock reads (callers stamp points).
"""

from __future__ import annotations


class TimeSeries:
    """Fixed-capacity ring buffer of chronological ``(t, value)`` points.

    ``append`` keeps the newest ``capacity`` points; times must be
    non-decreasing (the hub stamps them from one clock, so out-of-order
    points indicate a caller bug and raise). ``window(seconds)`` and
    ``rates()`` are the read-side helpers the renderers use.
    """

    __slots__ = ("capacity", "_times", "_values", "_start", "_size", "total_points")

    def __init__(self, capacity: int = 512) -> None:
        if capacity < 2:
            raise ValueError(f"capacity must be >= 2, got {capacity}")
        self.capacity = capacity
        self._times: list[float] = [0.0] * capacity
        self._values: list[float] = [0.0] * capacity
        self._start = 0
        self._size = 0
        self.total_points = 0
        """How many points were ever appended (ring overwrites included)."""

    def __len__(self) -> int:
        return self._size

    def append(self, t: float, value: float) -> None:
        if self._size:
            last = self._times[(self._start + self._size - 1) % self.capacity]
            if t < last:
                raise ValueError(
                    f"time series points must be chronological: {t} < {last}"
                )
        if self._size == self.capacity:
            index = self._start
            self._start = (self._start + 1) % self.capacity
            self._size -= 1
        else:
            index = (self._start + self._size) % self.capacity
        self._times[index] = t
        self._values[index] = value
        self._size += 1
        self.total_points += 1

    def points(self) -> list[tuple[float, float]]:
        """Chronological copy of the retained points."""
        return [
            (
                self._times[(self._start + i) % self.capacity],
                self._values[(self._start + i) % self.capacity],
            )
            for i in range(self._size)
        ]

    def last(self) -> tuple[float, float] | None:
        """The newest point, or None when empty."""
        if not self._size:
            return None
        index = (self._start + self._size - 1) % self.capacity
        return (self._times[index], self._values[index])

    def window(self, seconds: float) -> list[tuple[float, float]]:
        """The points within ``seconds`` of the newest point."""
        newest = self.last()
        if newest is None:
            return []
        cutoff = newest[0] - seconds
        return [(t, v) for t, v in self.points() if t >= cutoff]

    def rates(self) -> list[tuple[float, float]]:
        """Per-second deltas of a cumulative series.

        Each output point ``(t_i, rate)`` covers the interval from the
        previous retained point; zero-duration intervals are skipped
        (two events stamped identically contribute to the next real
        interval instead of a division by zero). A counter reset
        (value decreasing) restarts the rate at zero rather than going
        negative.
        """
        points = self.points()
        rates: list[tuple[float, float]] = []
        for (t0, v0), (t1, v1) in zip(points, points[1:]):
            dt = t1 - t0
            if dt <= 0:
                continue
            delta = v1 - v0
            rates.append((t1, delta / dt if delta > 0 else 0.0))
        return rates
