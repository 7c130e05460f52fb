"""Unit tests for the live-telemetry primitives: the ring series, and
the log-bucket histogram the hub uses as its quantile sketch."""

import pytest

from repro.errors import ReproError
from repro.obs.metrics import Histogram
from repro.obs.timeseries import TimeSeries


class TestTimeSeries:
    def test_append_and_points_chronological(self):
        series = TimeSeries(capacity=8)
        for t in range(5):
            series.append(float(t), float(t * 10))
        assert len(series) == 5
        assert series.points() == [(float(t), float(t * 10)) for t in range(5)]
        assert series.last() == (4.0, 40.0)
        assert series.total_points == 5

    def test_ring_overwrites_oldest(self):
        series = TimeSeries(capacity=4)
        for t in range(10):
            series.append(float(t), float(t))
        assert len(series) == 4
        assert series.points() == [(float(t), float(t)) for t in (6, 7, 8, 9)]
        assert series.total_points == 10

    def test_rejects_non_chronological(self):
        series = TimeSeries(capacity=4)
        series.append(5.0, 1.0)
        with pytest.raises(ValueError):
            series.append(4.0, 2.0)
        # Equal timestamps are allowed (two events in the same instant).
        series.append(5.0, 3.0)
        assert len(series) == 2

    def test_capacity_floor(self):
        with pytest.raises(ValueError):
            TimeSeries(capacity=1)

    def test_empty_reads(self):
        series = TimeSeries(capacity=4)
        assert series.points() == []
        assert series.last() is None
        assert series.window(10.0) == []
        assert series.rates() == []

    def test_window(self):
        series = TimeSeries(capacity=16)
        for t in range(10):
            series.append(float(t), float(t))
        assert series.window(3.0) == [(t, t) for t in (6.0, 7.0, 8.0, 9.0)]

    def test_rates_of_cumulative_series(self):
        series = TimeSeries(capacity=16)
        series.append(0.0, 0.0)
        series.append(1.0, 100.0)
        series.append(3.0, 300.0)
        assert series.rates() == [(1.0, 100.0), (3.0, 100.0)]

    def test_rates_skip_zero_dt_and_clamp_resets(self):
        series = TimeSeries(capacity=16)
        series.append(0.0, 100.0)
        series.append(0.0, 150.0)  # same instant: no rate point
        series.append(1.0, 50.0)  # counter reset: rate clamps to 0, not negative
        rates = series.rates()
        assert rates == [(1.0, 0.0)]

    def test_zero_rate_is_kept(self):
        # A flat cumulative series is a real 0.0 rate, not a missing one.
        series = TimeSeries(capacity=8)
        series.append(0.0, 10.0)
        series.append(1.0, 10.0)
        assert series.rates() == [(1.0, 0.0)]


class TestQuantileSketch:
    def test_quantiles_dict_shape(self):
        sketch = Histogram("lat")
        assert sketch.quantiles() == {"p50": None, "p95": None, "p99": None}
        for value in (1.0, 2.0, 3.0):
            sketch.observe(value)
        quantiles = sketch.quantiles()
        assert set(quantiles) == {"p50", "p95", "p99"}
        assert all(v is not None for v in quantiles.values())

    def test_invalid_quantile_raises(self):
        sketch = Histogram("x")
        sketch.observe(1.0)
        with pytest.raises(ReproError):
            sketch.quantile(1.5)
