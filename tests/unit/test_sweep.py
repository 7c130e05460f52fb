"""Unit tests for the sweep engine: points, cache keys, serial runs."""

import pickle
import shutil

import pytest

from repro.cluster.costmodel import CostModel
from repro.errors import SweepError
from repro.experiments import sweep
from repro.experiments.sweep import (
    ResultCache,
    SweepPoint,
    code_fingerprint,
    figure5_points,
    figure6_points,
    heterogeneous_points,
    resolve_jobs,
    run_sweep,
    run_sweep_point,
)

SMALL_GRID = dict(
    scales=(5,), skews=(0,), policies=("Hadoop", "C"), seeds=(0,), sample_size=10_000
)


class TestSweepPoint:
    def test_params_are_sorted_and_hashable(self):
        point = SweepPoint.make("figure5", z=0, scale=5, policy="C")
        assert [k for k, _ in point.params] == ["policy", "scale", "z"]
        assert hash(point) == hash(SweepPoint.make("figure5", scale=5, policy="C", z=0))

    def test_point_is_picklable(self):
        point = SweepPoint.make("figure5", scale=5, seeds=(0, 1))
        assert pickle.loads(pickle.dumps(point)) == point

    def test_unknown_kind_rejected(self):
        with pytest.raises(SweepError):
            run_sweep_point(SweepPoint.make("figure99"))

    def test_grid_builders_cover_the_cross_product(self):
        points = figure5_points(
            scales=(5, 10), skews=(0, 1), policies=("LA",), seeds=(0,), sample_size=10
        )
        assert len(points) == 4
        assert len(set(points)) == 4
        assert len(figure6_points(
            skews=(0, 2), policies=("LA", "C"), seeds=(0,), scale=100,
            num_users=10, warmup=1.0, measurement=2.0,
        )) == 4
        assert len(heterogeneous_points(
            figure="figure7", scheduler="fifo", fractions=(0.2, 0.4),
            policies=("LA",), seeds=(0,), scale=100, num_users=10,
            warmup=1.0, measurement=2.0,
        )) == 2

    def test_heterogeneous_points_reject_other_figures(self):
        with pytest.raises(SweepError):
            heterogeneous_points(
                figure="figure5", scheduler="fifo", fractions=(0.2,),
                policies=("LA",), seeds=(0,), scale=100, num_users=10,
                warmup=1.0, measurement=2.0,
            )


class TestResolveJobs:
    def test_default_is_cpu_count(self):
        assert resolve_jobs(None) >= 1

    def test_explicit_value_passes_through(self):
        assert resolve_jobs(3) == 3

    def test_zero_rejected(self):
        with pytest.raises(SweepError):
            resolve_jobs(0)


class TestCacheKeys:
    def test_key_is_stable(self, tmp_path):
        cache = ResultCache(tmp_path)
        point = SweepPoint.make("figure5", scale=5)
        assert cache.key(point) == cache.key(point)

    def test_different_points_different_keys(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert cache.key(SweepPoint.make("figure5", scale=5)) != cache.key(
            SweepPoint.make("figure5", scale=10)
        )

    def test_cost_model_change_invalidates(self, tmp_path):
        """Editing a cost-model constant must miss every cached cell."""
        default = code_fingerprint()
        slower_disk = code_fingerprint(CostModel(disk_bandwidth_bps=45e6))
        assert default != slower_disk
        point = SweepPoint.make("figure5", scale=5)
        before = ResultCache(tmp_path, fingerprint=default)
        after = ResultCache(tmp_path, fingerprint=slower_disk)
        before.put(point, "result")
        assert ResultCache.is_hit(before.get(point))
        assert not ResultCache.is_hit(after.get(point))

    def test_source_edit_invalidates(self, tmp_path, monkeypatch):
        """A one-byte edit to any package source must miss every cell."""
        copy = tmp_path / "repro"
        shutil.copytree(
            sweep.PACKAGE_ROOT, copy, ignore=shutil.ignore_patterns("__pycache__")
        )
        default = code_fingerprint()
        monkeypatch.setattr(sweep, "PACKAGE_ROOT", copy)
        # Relative paths only: the same sources anywhere hash the same.
        assert code_fingerprint() == default
        source = copy / "engine" / "cluster_engine.py"
        source.write_bytes(source.read_bytes() + b"\n")
        assert code_fingerprint() != default

    def test_torn_entry_reads_as_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        point = SweepPoint.make("figure5", scale=5)
        cache.put(point, "result")
        cache.path(point).write_bytes(b"")
        assert not ResultCache.is_hit(cache.get(point))

    def test_failure_config_is_part_of_the_key(self, tmp_path):
        # Regression: cells simulated under failure injection used to
        # share keys with clean cells, so a failure sweep could serve a
        # clean run stale results (and vice versa).
        from repro.engine.failures import FailureConfig

        cache = ResultCache(tmp_path)
        clean = figure5_points(**SMALL_GRID)
        flaky = figure5_points(
            **SMALL_GRID, failures=FailureConfig(map_failure_probability=0.1)
        )
        reseeded = figure5_points(
            **SMALL_GRID,
            failures=FailureConfig(map_failure_probability=0.1, seed=9),
        )
        keys = {
            cache.key(point)
            for grid in (clean, flaky, reseeded)
            for point in grid
        }
        assert len(keys) == len(clean) + len(flaky) + len(reseeded)

    def test_failure_config_rides_inside_the_point(self):
        from repro.engine.failures import FailureConfig

        config = FailureConfig(map_failure_probability=0.2, seed=4)
        point = figure5_points(**SMALL_GRID, failures=config)[0]
        assert point.as_dict()["failures"] == config
        assert pickle.loads(pickle.dumps(point)) == point


class TestSerialSweep:
    def test_matches_direct_cell_runs(self):
        from repro.experiments.single_user import run_single_user_cell

        points = figure5_points(**SMALL_GRID)
        results = run_sweep(points, jobs=1)
        for point in points:
            params = point.as_dict()
            direct = run_single_user_cell(**params)
            assert pickle.dumps(results[point]) == pickle.dumps(direct)

    def test_cache_hit_skips_recomputation(self, tmp_path, monkeypatch):
        points = figure5_points(**SMALL_GRID)
        cache = ResultCache(tmp_path)
        statuses = []
        first = run_sweep(
            points, jobs=1, cache=cache, progress=lambda p, s: statuses.append(s)
        )
        assert statuses == ["ran"] * len(points)

        # A cached re-run must not invoke any runner at all.
        def boom(point):
            raise AssertionError(f"cache miss recomputed {point}")

        monkeypatch.setattr("repro.experiments.sweep.run_sweep_point", boom)
        statuses.clear()
        second = run_sweep(
            points, jobs=1, cache=cache, progress=lambda p, s: statuses.append(s)
        )
        assert statuses == ["cached"] * len(points)
        for point in points:
            assert pickle.dumps(first[point]) == pickle.dumps(second[point])

    def test_changed_fingerprint_recomputes(self, tmp_path):
        points = figure5_points(**SMALL_GRID)
        run_sweep(points, jobs=1, cache=ResultCache(tmp_path))
        statuses = []
        stale = ResultCache(
            tmp_path, fingerprint=code_fingerprint(CostModel(disk_bandwidth_bps=45e6))
        )
        run_sweep(points, jobs=1, cache=stale, progress=lambda p, s: statuses.append(s))
        assert statuses == ["ran"] * len(points)

    def test_failure_points_execute_end_to_end(self):
        # A failure-bearing point must flow through the sweep runner into
        # the cell function (it used to be unrepresentable in the grid).
        from repro.engine.failures import FailureConfig

        point = figure5_points(
            scales=(5,), skews=(0,), policies=("Hadoop",), seeds=(0,),
            sample_size=10_000,
            failures=FailureConfig(map_failure_probability=0.15, seed=3),
        )[0]
        clean_point = figure5_points(
            scales=(5,), skews=(0,), policies=("Hadoop",), seeds=(0,),
            sample_size=10_000,
        )[0]
        flaky = run_sweep_point(point)
        clean = run_sweep_point(clean_point)
        # Retries cost time but the sample is still delivered in full.
        assert flaky.sample_size.mean == clean.sample_size.mean == 10_000
        assert flaky.mean_response > clean.mean_response

    def test_duplicate_points_run_once(self):
        calls = []
        point = figure5_points(**SMALL_GRID)[0]
        results = run_sweep(
            [point, point], jobs=1, progress=lambda p, s: calls.append(s)
        )
        assert calls == ["ran"]
        assert len(results) == 1

    def test_experiment_wrappers_accept_jobs_and_cache(self, tmp_path):
        from repro.experiments.single_user import run_single_user_experiment

        cache = ResultCache(tmp_path)
        cells = run_single_user_experiment(
            scales=(5,), skews=(0,), policies=("Hadoop",), seeds=(0,),
            jobs=1, cache=cache,
        )
        assert set(cells) == {(5, 0, "Hadoop")}
        assert len(list(cache.root.glob("*.pkl"))) == 1
