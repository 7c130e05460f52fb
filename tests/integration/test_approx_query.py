"""Integration tests: error-bounded aggregation end to end.

Covers the accuracy provider on both substrates (LocalRunner over
materialized data, simulated cluster over profiles), the Hive
``WITHIN ... ERROR`` surface, the reducer-vs-estimator cross-check in
``finalize_rows``, and the ``accuracy_stopping`` audit invariant on
clean and mutated traces.
"""

import copy
import io
import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro import LocalRunner
from repro.approx.estimators import AggregateSpec
from repro.approx.job import finalize_rows, make_approx_conf
from repro.cli import main
from repro.cluster import paper_topology
from repro.data import (
    LINEITEM_SCHEMA,
    build_materialized_dataset,
    dataset_spec_for_scale,
    predicate_for_skew,
)
from repro.dfs import DistributedFileSystem
from repro.errors import JobError
from repro.hive import HiveSession
from repro.obs import TraceRecorder, load_trace

NUM_PARTITIONS = 32
SELECTIVITY = 0.2

_fixture_cache: dict = {}


def approx_fixture():
    """(predicate, dfs, true_count) over a shared materialized dataset."""
    if not _fixture_cache:
        pred = predicate_for_skew(2)
        spec = dataset_spec_for_scale(0.002, num_partitions=NUM_PARTITIONS)
        data = build_materialized_dataset(
            spec, {pred: 0.0}, seed=0, selectivity=SELECTIVITY
        )
        dfs = DistributedFileSystem(paper_topology().storage_locations())
        dfs.write_dataset("/warehouse/lineitem", data)
        _fixture_cache["value"] = (pred, dfs, data.total_matches(pred.name))
    return _fixture_cache["value"]


def run_approx(
    *,
    aggregate=AggregateSpec("count", None),
    error_pct=5.0,
    group_by=None,
    seed=0,
):
    pred, dfs, _truth = approx_fixture()
    conf = make_approx_conf(
        name="it-approx",
        input_path="/warehouse/lineitem",
        predicate=pred,
        aggregate=aggregate,
        error_pct=error_pct,
        group_by=group_by,
        policy_name="LA",
    )
    return LocalRunner(seed=seed).run(conf, dfs.open_splits("/warehouse/lineitem"))


def run_cli(argv):
    out = io.StringIO()
    code = main(argv, out=out)
    return code, out.getvalue()


class TestLocalRunnerApprox:
    def test_count_interval_covers_truth_and_stops_early(self):
        _pred, _dfs, truth = approx_fixture()
        result = run_approx(error_pct=5.0)
        assert result.approx is not None and result.approx["target_met"]
        [group] = result.approx["groups"]
        assert group.get("half_width") is not None
        assert abs(group["estimate"] - truth) <= 3 * group["half_width"]
        assert group["half_width"] <= 0.05 * group["estimate"] + 1e-9
        assert result.splits_processed < NUM_PARTITIONS

    def test_tiny_target_degrades_to_exact_full_scan(self):
        _pred, _dfs, truth = approx_fixture()
        result = run_approx(error_pct=1e-6)
        [group] = result.approx["groups"]
        assert group["method"] == "exact"
        assert group["estimate"] == float(truth)
        assert group["half_width"] == 0.0
        assert result.splits_processed == NUM_PARTITIONS

    def test_sum_and_avg_agree_with_count_on_full_scan(self):
        # Exact (full-scan) runs of all three aggregates must be mutually
        # consistent: AVG == SUM / COUNT over the same matches.
        count = run_approx(error_pct=1e-6).approx["groups"][0]["estimate"]
        total = run_approx(
            aggregate=AggregateSpec("sum", "l_quantity"), error_pct=1e-6
        ).approx["groups"][0]["estimate"]
        mean = run_approx(
            aggregate=AggregateSpec("avg", "l_quantity"), error_pct=1e-6
        ).approx["groups"][0]["estimate"]
        assert mean == pytest.approx(total / count)

    def test_approx_summary_records_the_run(self):
        result = run_approx(error_pct=5.0)
        summary = result.approx
        assert summary["aggregate"] == "count"
        assert summary["error_pct"] == 5.0
        assert summary["confidence_pct"] == 95.0
        assert summary["total_splits"] == NUM_PARTITIONS
        assert summary["observed_splits"] == result.splits_processed


class TestFinalizeRowsCrossCheck:
    def grouped_result(self):
        return run_approx(
            aggregate=AggregateSpec("sum", "l_quantity"),
            group_by="l_returnflag",
            error_pct=1e-6,
        )

    def test_rows_join_reducer_and_estimator(self):
        result = self.grouped_result()
        rows = finalize_rows(result.output_data, result.approx)
        assert len(rows) == len(result.approx["groups"]) >= 2
        assert [r["group"] for r in rows] == sorted(
            (r["group"] for r in rows), key=str
        )
        for row in rows:
            assert row["aggregate"] == "sum:l_quantity"
            assert row["method"] == "exact"
            assert row["n_splits"] == NUM_PARTITIONS

    def test_mismatched_totals_raise(self):
        result = self.grouped_result()
        tampered = copy.deepcopy(result.output_data)
        group, totals = tampered[0]
        tampered[0] = (group, {"count": totals["count"] + 1, "sum": totals["sum"]})
        with pytest.raises(JobError, match="reducer saw"):
            finalize_rows(tampered, result.approx)

    def test_dropped_reducer_group_raises(self):
        result = self.grouped_result()
        with pytest.raises(JobError, match="never saw"):
            finalize_rows(result.output_data[1:], result.approx)

    def test_phantom_reducer_group_raises(self):
        result = self.grouped_result()
        tampered = list(result.output_data) + [("GHOST", {"count": 1, "sum": 1.0})]
        with pytest.raises(JobError, match="never observed"):
            finalize_rows(tampered, result.approx)


class TestHiveWithinError:
    @pytest.fixture()
    def session(self):
        _pred, dfs, _truth = approx_fixture()
        session = HiveSession(runner=LocalRunner(seed=1), dfs=dfs)
        session.register_table("lineitem", "/warehouse/lineitem", LINEITEM_SCHEMA)
        return session

    def test_count_within_error(self, session):
        _pred, _dfs, truth = approx_fixture()
        result = session.execute(
            "SELECT COUNT(*) FROM lineitem WHERE l_quantity = 51 WITHIN 5% ERROR"
        )
        [row] = result.rows
        assert row["aggregate"] == "count"
        assert row["confidence_pct"] == 95.0
        assert abs(row["estimate"] - truth) <= 3 * row["half_width"]
        assert result.job.approx["target_met"]

    def test_group_by_returns_one_row_per_group(self, session):
        result = session.execute(
            "SELECT AVG(l_quantity) FROM lineitem WHERE l_quantity = 51 "
            "GROUP BY l_returnflag WITHIN 40% ERROR AT 90% CONFIDENCE"
        )
        assert len(result.rows) >= 2
        for row in result.rows:
            assert row["aggregate"] == "avg:l_quantity"
            assert row["confidence_pct"] == 90.0
            assert row["estimate"] is not None

    def test_session_error_param_applies(self, session):
        session.execute("SET sampling.error.pct = 5")
        result = session.execute(
            "SELECT COUNT(*) FROM lineitem WHERE l_quantity = 51"
        )
        assert result.job.approx is not None
        assert result.job.approx["error_pct"] == 5.0


class TestWithinErrorKeepsUniformPool:
    """Approximate queries ignore a session stats mode: pruned splits
    would leave the estimator's finite-population correction with a
    population it never samples."""

    def scanned_splits(self, tmp_path, dfs, mode, sql):
        path = tmp_path / f"{mode}.jsonl"
        with TraceRecorder(path) as trace:
            session = HiveSession(runner=LocalRunner(seed=1, trace=trace), dfs=dfs)
            session.register_table("lineitem", "/warehouse/lineitem", LINEITEM_SCHEMA)
            session.execute(f"SET sampling.stats.mode = {mode}")
            result = session.execute(sql)
        scans = [e["split_id"] for e in load_trace(path) if e["type"] == "scan_span"]
        return result, scans

    def test_session_prune_mode_reads_the_splits_of_off(self, tmp_path):
        pred = predicate_for_skew(2)
        data = build_materialized_dataset(
            dataset_spec_for_scale(8_000 / 6_000_000, num_partitions=16),
            {pred: 2.0}, seed=0, selectivity=0.02, layout="mmap",
            mmap_path=str(tmp_path / "lineitem.rcs"), stats=True,
        )
        dfs = DistributedFileSystem(paper_topology().storage_locations())
        dfs.write_dataset("/warehouse/lineitem", data)
        within = "SELECT COUNT(*) FROM lineitem WHERE l_quantity = 51 WITHIN 5% ERROR"
        off, off_scans = self.scanned_splits(tmp_path, dfs, "off", within)
        pruned, pruned_scans = self.scanned_splits(tmp_path, dfs, "prune", within)
        assert pruned_scans == off_scans
        assert pruned.rows == off.rows
        assert pruned.job.splits_pruned == 0
        # The same session setting does prune a LIMIT query on this data.
        limit = "SELECT * FROM lineitem WHERE l_quantity = 51 LIMIT 10"
        sample, _ = self.scanned_splits(tmp_path, dfs, "prune", limit)
        assert sample.job.splits_pruned > 0


class TestSimulatedClusterApprox:
    def test_cli_sample_error_bounded(self):
        code, text = run_cli(
            ["sample", "--scale", "5", "--error", "5", "--seed", "0"]
        )
        assert code == 0
        assert "estimate" in text
        assert "target met" in text

    def test_cli_query_with_error_flag(self, tmp_path):
        code, text = run_cli(
            [
                "query", "--seed", "0", "--error", "5",
                "SELECT COUNT(*) FROM lineitem WHERE l_quantity = 51",
            ]
        )
        assert code == 0
        assert "estimate" in text


class TestAccuracyAudit:
    def fresh_trace(self, tmp_path):
        path = tmp_path / "accuracy.jsonl"
        code, _ = run_cli(
            ["sample", "--scale", "5", "--error", "1", "--seed", "0",
             "--trace-out", str(path)]
        )
        assert code == 0
        return path

    def test_trace_carries_ci_state(self, tmp_path):
        path = self.fresh_trace(tmp_path)
        events = [json.loads(line) for line in path.read_text().splitlines()]
        evaluations = [e for e in events if e["type"] == "provider_evaluation"]
        assert evaluations
        assert all("ci" in e["response"] for e in evaluations)
        final = evaluations[-1]
        assert final["response"]["kind"] == "END_OF_INPUT"
        assert final["response"]["ci"]["met"] is True

    def test_audit_passes_on_clean_accuracy_trace(self, tmp_path):
        path = self.fresh_trace(tmp_path)
        code, text = run_cli(["audit", str(path)])
        assert code == 0
        assert "audit OK" in text

    def test_premature_stop_mutant_fails_audit(self, tmp_path):
        out = tmp_path / "accuracy_mutant.jsonl"
        subprocess.run(
            [sys.executable, "tests/data/make_accuracy_mutant.py", str(out)],
            check=True,
            cwd=Path(__file__).parent.parent.parent,
        )
        code, text = run_cli(["audit", str(out)])
        assert code == 1
        assert "accuracy_stopping" in text
