"""Integration tests: the stats-aware provider end to end (LocalRunner,
and the simulated cluster's result accounting).

Covers the PR 7 acceptance criteria: pruning reduces splits scanned
without changing the result set, ``stats-mode=off`` is byte-identical to
the plain sampling provider, and a stats-enabled trace passes the paper
auditor (the pruned splits count as processed-with-zero-matches in the
splits-accounting invariant).
"""

import pytest

from repro import LocalRunner, SimulatedCluster, make_sampling_conf
from repro.cluster import paper_topology
from repro.data import (
    build_materialized_dataset,
    dataset_spec_for_scale,
    predicate_for_skew,
)
from repro.dfs import DistributedFileSystem
from repro.errors import JobConfError
from repro.obs import TraceRecorder, load_trace
from repro.obs.audit import audit_events

ROWS = 8_000
PARTITIONS = 16


@pytest.fixture(scope="module")
def stats_splits(tmp_path_factory):
    """(predicate, dataset, splits) over a stats-enabled z=2 mmap dataset."""
    tmp = tmp_path_factory.mktemp("stats_ds")
    pred = predicate_for_skew(2)
    spec = dataset_spec_for_scale(ROWS / 6_000_000, num_partitions=PARTITIONS)
    data = build_materialized_dataset(
        spec,
        {pred: 2.0},
        seed=0,
        selectivity=0.005,
        layout="mmap",
        mmap_path=str(tmp / "lineitem.rcs"),
        stats=True,
    )
    dfs = DistributedFileSystem(paper_topology().storage_locations())
    dfs.write_dataset("/t", data)
    return pred, data, dfs.open_splits("/t")


def run_mode(splits, pred, mode, *, k, seed=0, name="q", trace=None, **kwargs):
    conf = make_sampling_conf(
        name=name,
        input_path="/t",
        predicate=pred,
        sample_size=k,
        policy_name="LA",
        stats_mode=mode,
        **kwargs,
    )
    with LocalRunner(seed=seed, trace=trace) as runner:
        return runner.run(conf, splits)


class TestPruneMode:
    def test_prunes_splits_and_keeps_every_match(self, stats_splits):
        pred, data, splits = stats_splits
        total = data.total_matches(pred.name)
        off = run_mode(splits, pred, "off", k=ROWS)
        prune = run_mode(splits, pred, "prune", k=ROWS)
        assert off.splits_pruned == 0
        assert off.splits_processed == PARTITIONS
        assert prune.splits_pruned > 0
        assert prune.splits_processed + prune.splits_pruned == PARTITIONS
        # Soundness end to end: pruning drops no matching row.
        assert off.outputs_produced == prune.outputs_produced == total
        assert sorted(map(repr, off.sample)) == sorted(map(repr, prune.sample))

    @pytest.mark.parametrize("provider", ["static", "adaptive"])
    def test_every_limit_composition_prunes(self, stats_splits, provider):
        # The pool follows the stats mode whatever the demand rule and
        # grab budget: all-input and ladder-budget jobs skip empty splits.
        pred, data, splits = stats_splits
        result = run_mode(splits, pred, "prune", k=ROWS, provider_name=provider)
        assert result.splits_pruned > 0
        assert result.splits_processed + result.splits_pruned == PARTITIONS
        assert result.outputs_produced == data.total_matches(pred.name)

    def test_stats_free_layout_degrades_to_baseline(self):
        pred = predicate_for_skew(2)
        spec = dataset_spec_for_scale(0.0005, num_partitions=8)
        data = build_materialized_dataset(spec, {pred: 2.0}, seed=0, selectivity=0.01)
        dfs = DistributedFileSystem(paper_topology().storage_locations())
        dfs.write_dataset("/t", data)
        splits = dfs.open_splits("/t")
        result = run_mode(splits, pred, "prune", k=3000)
        assert result.splits_pruned == 0
        assert result.outputs_produced == data.total_matches(pred.name)

    def test_invalid_mode_rejected(self, stats_splits):
        pred, _data, splits = stats_splits
        with pytest.raises(JobConfError, match="stats_mode"):
            run_mode(splits, pred, "zap", k=10)


class TestSimulatedCluster:
    def test_result_counts_the_providers_pruned_splits(self, stats_splits, tmp_path):
        # Every split is either read or retired by statistics, and the
        # result reports the count the provider's last evaluation traced.
        pred, data, _splits = stats_splits
        path = tmp_path / "trace.jsonl"
        with TraceRecorder(path) as trace:
            cluster = SimulatedCluster.paper_cluster(seed=0, trace=trace)
            cluster.load_dataset("/t", data)
            result = cluster.run_job(make_sampling_conf(
                name="q", input_path="/t", predicate=pred, sample_size=ROWS,
                policy_name="LA", stats_mode="prune",
            ))
        evaluations = [
            e for e in load_trace(path) if e["type"] == "provider_evaluation"
        ]
        assert result.splits_pruned > 0
        assert result.splits_processed + result.splits_pruned == PARTITIONS
        assert result.splits_pruned == evaluations[-1]["response"]["pruned"]


class TestRankAndStratified:
    def test_rank_mode_reaches_k(self, stats_splits):
        pred, _data, splits = stats_splits
        result = run_mode(splits, pred, "rank", k=10)
        assert result.outputs_produced == 10
        assert all(pred.matches(row) for row in result.sample)

    def test_rank_scans_no_more_splits_than_off(self, stats_splits):
        pred, _data, splits = stats_splits
        off = run_mode(splits, pred, "off", k=10)
        rank = run_mode(splits, pred, "rank", k=10)
        assert rank.splits_processed <= off.splits_processed

    def test_stratified_mode_prunes_only_grabbed_splits(self, stats_splits):
        pred, data, splits = stats_splits
        result = run_mode(splits, pred, "stratified", k=ROWS)
        assert result.outputs_produced == data.total_matches(pred.name)
        assert result.splits_pruned > 0
        assert result.splits_processed + result.splits_pruned == PARTITIONS

    def test_stratified_small_k_stays_uniform_over_pool(self, stats_splits):
        pred, _data, splits = stats_splits
        result = run_mode(splits, pred, "stratified", k=5)
        assert result.outputs_produced == 5

    def make_rank_provider(self, pred, splits):
        import random

        from repro import make_sampling_conf
        from repro.core import default_providers, paper_policies

        conf = make_sampling_conf(
            name="q", input_path="/t", predicate=pred, sample_size=10,
            policy_name="LA", stats_mode="rank",
        )
        provider = default_providers().create("stats")
        provider.initialize(
            list(splits), conf, paper_policies().get("LA"), random.Random(0)
        )
        return provider

    def test_rank_seeds_prior_from_zone_maps(self, stats_splits):
        pred, _data, splits = stats_splits
        provider = self.make_rank_provider(pred, splits)
        assert provider.demand.estimator.estimate is not None
        assert provider.demand.estimator.estimate > 0

    def test_rank_zero_zone_map_evidence_stays_uninformed(
        self, stats_splits, monkeypatch
    ):
        # Regression: zero surveyed matches used to seed a (0, records)
        # prior, pinning the estimate at 0.0 — claiming certainty that
        # nothing matches. It must leave the estimator uninformed.
        from repro.scan import prune

        pred, _data, splits = stats_splits
        monkeypatch.setattr(
            prune, "estimate_matches", lambda predicate, stats: 0.0
        )
        provider = self.make_rank_provider(pred, splits)
        assert provider.demand.estimator.estimate is None
        result = run_mode(splits, pred, "rank", k=10)
        assert result.outputs_produced == 10


class TestOffModeIdentity:
    def test_off_mode_is_byte_identical_to_sampling_provider(self, stats_splits):
        """The stats provider in off mode must replay the sampling
        provider exactly: same RNG stream, same grabs, same output."""
        pred, _data, splits = stats_splits
        baseline = run_mode(
            splits, pred, None, k=25, seed=7, provider_name="sampling"
        )
        off = run_mode(splits, pred, "off", k=25, seed=7, provider_name="stats")
        assert off.output_data == baseline.output_data
        assert off.records_processed == baseline.records_processed
        assert off.splits_processed == baseline.splits_processed
        assert off.evaluations == baseline.evaluations
        assert off.splits_pruned == 0


class TestTraceAndAudit:
    def test_audit_passes_on_stats_enabled_trace(self, stats_splits, tmp_path):
        pred, _data, splits = stats_splits
        path = tmp_path / "trace.jsonl"
        with TraceRecorder(path) as trace:
            result = run_mode(splits, pred, "prune", k=ROWS, trace=trace)
        assert result.splits_pruned > 0
        from repro.obs import load_trace

        events = load_trace(path)
        report = audit_events(events)
        assert report.ok, [v.describe() for v in report.violations]
        evaluations = [e for e in events if e["type"] == "provider_evaluation"]
        assert evaluations
        assert max(e["response"]["pruned"] for e in evaluations) == result.splits_pruned

    def test_audit_flags_shrinking_pruned_counter(self, stats_splits, tmp_path):
        pred, _data, splits = stats_splits
        path = tmp_path / "trace.jsonl"
        with TraceRecorder(path) as trace:
            run_mode(splits, pred, "stratified", k=ROWS, trace=trace)
        from repro.obs import load_trace

        events = load_trace(path)
        evaluations = [e for e in events if e["type"] == "provider_evaluation"]
        if len(evaluations) < 2:
            pytest.skip("needs at least two evaluations to corrupt")
        # Corrupt the last evaluation's cumulative counter downward.
        evaluations[-1]["response"]["pruned"] = -1
        report = audit_events(events)
        assert any(v.check == "pruned_monotonic" for v in report.violations)

    def test_report_diff_carries_splits_pruned(self, stats_splits, tmp_path):
        # A prune-mode trace against an off-mode trace: the per-policy
        # diff must surface the pruned-split counts, and the rendered
        # markdown must be byte-deterministic across rebuilds.
        from repro.obs import load_trace
        from repro.obs.report import build_report, render_markdown

        pred, _data, splits = stats_splits
        off_path = tmp_path / "off.jsonl"
        prune_path = tmp_path / "prune.jsonl"
        with TraceRecorder(off_path) as trace:
            run_mode(splits, pred, "off", k=ROWS, trace=trace)
        with TraceRecorder(prune_path) as trace:
            pruned = run_mode(splits, pred, "prune", k=ROWS, trace=trace)
        assert pruned.splits_pruned > 0

        def render():
            traces = [
                ("off", load_trace(off_path)),
                ("prune", load_trace(prune_path)),
            ]
            return render_markdown(build_report(traces, diff=True))

        text = render()
        assert text == render()
        row = next(
            line for line in text.splitlines() if "splits pruned" in line
        )
        # Cells: metric | off | prune | delta — off pruned nothing.
        cells = [cell.strip() for cell in row.strip("|").split("|")]
        assert cells == [
            "splits pruned", "0", f"{pruned.splits_pruned:,}",
            f"{pruned.splits_pruned:,}",
        ]
