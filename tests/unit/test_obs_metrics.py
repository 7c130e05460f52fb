"""Unit tests for the log-bucket histogram and the snapshot shape."""

import pytest

from repro.cluster.metrics import ClusterMetrics
from repro.engine.job import job_metrics_snapshot
from repro.errors import ReproError
from repro.obs import Histogram
from repro.obs.metrics import MetricsError


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

    def test_invalid_quantile_raises(self):
        hist = Histogram("x")
        hist.observe(1.0)
        with pytest.raises(ReproError):
            hist.quantile(1.5)

    def test_quantiles_dict_shape(self):
        hist = Histogram("lat")
        assert hist.quantiles() == {"p50": None, "p95": None, "p99": None}
        for value in (1.0, 2.0, 3.0):
            hist.observe(value)
        quantiles = hist.quantiles()
        assert set(quantiles) == {"p50", "p95", "p99"}
        assert all(v is not None for v in quantiles.values())

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


class TestSnapshots:
    def test_snapshot_sorted_and_typed(self):
        job = job_metrics_snapshot(
            [3, 5],
            records_processed=8, outputs_produced=2, records_pending=0,
            evaluations=1, input_increments=1, failed_map_attempts=0,
            splits_pruned=4,
        )
        cluster = ClusterMetrics()
        cluster.record_map_task(local=True)
        cluster.record_sample(30.0, cpu=0.5, disk_bps=1e6, occupancy=0.25)
        for snapshot in (job, cluster.snapshot()):
            assert list(snapshot) == sorted(snapshot)
            for entry in snapshot.values():
                assert set(entry) == {"kind", "value"}
                assert entry["kind"] in ("counter", "gauge", "histogram")
        assert job["splits_pruned"] == {"kind": "counter", "value": 4}
        assert job["map_records_per_task"]["value"]["count"] == 2
        assert cluster.snapshot()["local_map_tasks"] == {"kind": "counter", "value": 1}
