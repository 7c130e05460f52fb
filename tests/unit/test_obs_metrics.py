"""Unit tests for the metrics registry (counters, gauges, histograms)."""

import pickle

import pytest

from repro.obs import Counter, Gauge, Histogram, MetricsRegistry
from repro.obs.metrics import MetricsError


class TestCounter:
    def test_starts_at_zero_and_accumulates(self):
        counter = Counter("records")
        counter.inc()
        counter.inc(4)
        assert counter.value == 5
        assert counter.snapshot() == 5

    def test_negative_increment_rejected(self):
        with pytest.raises(MetricsError):
            Counter("records").inc(-1)

    def test_non_finite_increment_rejected(self):
        # NaN slips past a bare ``amount < 0`` check (all NaN comparisons
        # are False) and would poison the running sum forever.
        counter = Counter("records")
        for bad in (float("nan"), float("inf"), float("-inf")):
            with pytest.raises(MetricsError):
                counter.inc(bad)
        assert counter.value == 0


class TestGauge:
    def test_moves_both_ways(self):
        gauge = Gauge("pending")
        gauge.inc(10)
        gauge.dec(3)
        assert gauge.value == 7
        gauge.set(2)
        assert gauge.snapshot() == 2

    def test_can_go_negative(self):
        gauge = Gauge("delta")
        gauge.dec(5)
        assert gauge.value == -5


class TestHistogram:
    def test_summary_statistics(self):
        hist = Histogram("latency")
        for value in (1.0, 3.0, 2.0):
            hist.observe(value)
        snap = hist.snapshot()
        assert snap["count"] == 3
        assert snap["total"] == 6.0
        assert snap["min"] == 1.0
        assert snap["max"] == 3.0
        assert snap["mean"] == 2.0
        # Log-bucket quantiles ride along in every snapshot.
        assert set(snap) == {
            "count", "total", "min", "max", "mean", "p50", "p95", "p99",
        }

    def test_empty_snapshot_has_null_extremes(self):
        snap = Histogram("latency").snapshot()
        assert snap["count"] == 0
        assert snap["min"] is None and snap["max"] is None and snap["mean"] is None
        assert snap["p50"] is None and snap["p95"] is None and snap["p99"] is None

    def test_quantiles_bounded_relative_error(self):
        # 20 buckets per decade => representatives are within ~6% of any
        # observed value; check p50/p95/p99 against the exact quantiles.
        hist = Histogram("latency")
        values = [float(v) for v in range(1, 1001)]
        for value in values:
            hist.observe(value)
        for q, exact in ((0.50, 500.0), (0.95, 950.0), (0.99, 990.0)):
            estimate = hist.quantile(q)
            assert abs(estimate - exact) / exact < 0.07, (q, estimate)

    def test_quantiles_clamped_to_observed_range(self):
        hist = Histogram("latency")
        hist.observe(42.0)
        # Single value: every quantile is exact (bucket midpoint clamps
        # to [min, max]).
        assert hist.quantile(0.0) == 42.0
        assert hist.quantile(0.5) == 42.0
        assert hist.quantile(1.0) == 42.0

    def test_quantile_handles_zero_and_negative(self):
        hist = Histogram("delta")
        for value in (-5.0, 0.0, 100.0):
            hist.observe(value)
        # Non-positive observations land in the underflow bucket and
        # surface as the recorded minimum.
        assert hist.quantile(0.1) == -5.0
        assert hist.quantile(1.0) == 100.0

    def test_quantile_rejects_bad_q_and_non_finite_observations(self):
        hist = Histogram("latency")
        with pytest.raises(MetricsError):
            hist.quantile(1.5)
        with pytest.raises(MetricsError):
            hist.quantile(-0.1)
        with pytest.raises(MetricsError):
            hist.observe(float("nan"))
        assert hist.quantile(0.5) is None  # still empty

    def test_bucket_count_stays_bounded(self):
        hist = Histogram("latency")
        for exponent in range(-30, 31):
            hist.observe(10.0 ** exponent)
        # One bucket per distinct log-bucket index, hard-clamped tails.
        assert len(hist.buckets) <= 801
        assert hist.count == 61

    def test_quantile_exact_at_clamp_boundaries(self):
        # Values at and beyond the 1e+/-20 clamp: single-value histograms
        # still answer exactly because the midpoint clamps to [min, max].
        for value in (1e-20, 1e20, 1e-30, 1e30):
            hist = Histogram("edge")
            hist.observe(value)
            assert hist.quantile(0.5) == value

    def test_quantile_with_both_tails_clamped(self):
        # One value beyond each clamp edge: the median walks the buckets
        # and must answer from the low clamp bucket's midpoint, not pin
        # itself to min or max.
        hist = Histogram("edge")
        hist.observe(1e-30)
        hist.observe(1e30)
        low_clamp_midpoint = 10.0 ** ((-400 + 0.5) / 20)
        high_clamp_midpoint = 10.0 ** ((400 + 0.5) / 20)
        assert hist.quantile(0.5) == pytest.approx(low_clamp_midpoint)
        # Beyond the clamp the bucket midpoint (~1e20), not the raw max,
        # is the answer: resolution is intentionally bounded at 1e+/-20.
        assert hist.quantile(1.0) == pytest.approx(high_clamp_midpoint)

    def test_quantile_all_nonpositive(self):
        hist = Histogram("delta")
        for value in (-3.0, -1.0, 0.0):
            hist.observe(value)
        # Everything lives in the underflow bucket, represented by min.
        for q in (0.0, 0.5, 1.0):
            assert hist.quantile(q) == -3.0

    def test_quantile_rank_boundary_between_buckets(self):
        # Two well-separated values: q up to 0.5 has rank 1 (low value),
        # anything above has rank 2 (high value) — the rank rule is
        # ceil(q * count), no interpolation across buckets.
        hist = Histogram("edge")
        hist.observe(1.0)
        hist.observe(1000.0)
        assert hist.quantile(0.5) == pytest.approx(1.0, rel=0.07)
        assert hist.quantile(0.51) == pytest.approx(1000.0, rel=0.07)


class TestRegistry:
    def test_lazy_creation_returns_same_metric(self):
        registry = MetricsRegistry(scope="job:test")
        assert registry.counter("a") is registry.counter("a")
        assert len(registry) == 1
        assert "a" in registry

    def test_kind_mismatch_rejected(self):
        registry = MetricsRegistry()
        registry.counter("records")
        with pytest.raises(MetricsError):
            registry.gauge("records")
        with pytest.raises(MetricsError):
            registry.histogram("records")

    def test_snapshot_sorted_and_typed(self):
        registry = MetricsRegistry(scope="cluster")
        registry.gauge("zeta").set(1)
        registry.counter("alpha").inc(2)
        snap = registry.snapshot()
        assert list(snap) == ["alpha", "zeta"]
        assert snap["alpha"] == {"kind": "counter", "value": 2}
        assert snap["zeta"] == {"kind": "gauge", "value": 1}

    def test_registry_is_picklable(self):
        registry = MetricsRegistry(scope="job:j1")
        registry.counter("records").inc(3)
        registry.histogram("per_task").observe(1.5)
        clone = pickle.loads(pickle.dumps(registry))
        assert clone.scope == "job:j1"
        assert clone.snapshot() == registry.snapshot()

    def test_iteration_is_name_ordered(self):
        registry = MetricsRegistry()
        registry.counter("b")
        registry.counter("a")
        assert [m.name for m in registry] == ["a", "b"]
