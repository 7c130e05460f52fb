"""Calibration: do the 95% confidence intervals actually cover the truth?

Two tiers, both fully seeded (deterministic — a pass here is a pass
forever, no flake budget):

* 450 estimator-level trials (150 seeds x COUNT/SUM/AVG): draw a finite
  population of 200 splits with heterogeneous per-split counts/sums,
  observe a random 30-split subset, and check whether the reported
  interval covers the population truth. Nominal coverage is 95%; the
  gate is >= 93% per aggregate, which a miscalibrated variance formula
  (e.g. dropping the FPC, or a z- instead of t-quantile) fails by a
  wide margin.

* 20 end-to-end trials through the LocalRunner + accuracy provider with
  the adaptive stopping rule engaged, since stopping on a data-dependent
  condition can in principle distort coverage.
"""

import random

from repro import LocalRunner
from repro.approx.estimators import AggregateEstimator, AggregateSpec
from repro.approx.job import make_approx_conf
from repro.cluster import paper_topology
from repro.data import (
    build_materialized_dataset,
    dataset_spec_for_scale,
    predicate_for_skew,
)
from repro.dfs import DistributedFileSystem

POPULATION = 200
SAMPLED = 30
SEEDS = range(150)


def draw_population(rng):
    """Per-split (count, sum) pairs; counts and means both vary."""
    splits = []
    for _ in range(POPULATION):
        count = rng.randint(40, 80)
        value_sum = count * rng.uniform(8.0, 12.0)
        splits.append((count, value_sum))
    return splits


def run_trial(spec, seed):
    """True iff the interval from a 30-of-200 split sample covers truth."""
    # One seeded stream per trial index, shared across aggregates: all
    # three estimators face the same 150 populations.
    rng = random.Random(f"calibration:{seed}")
    population = draw_population(rng)
    total_count = sum(c for c, _ in population)
    total_sum = sum(s for _, s in population)
    truth = {
        "count": float(total_count),
        "sum": total_sum,
        "avg": total_sum / total_count,
    }[spec.func]
    estimator = AggregateEstimator(spec, total_splits=POPULATION)
    for index in rng.sample(range(POPULATION), SAMPLED):
        count, value_sum = population[index]
        estimator.observe_split(f"s{index}", {None: (count, value_sum)})
    [group] = estimator.estimates()
    assert group.method == "clt"
    return abs(group.estimate - truth) <= group.half_width


class TestEstimatorCoverage:
    def check_coverage(self, spec):
        covered = sum(run_trial(spec, seed) for seed in SEEDS)
        coverage = covered / len(SEEDS)
        assert coverage >= 0.93, (
            f"{spec}: {covered}/{len(SEEDS)} intervals covered the truth "
            f"({coverage:.1%}, nominal 95%)"
        )

    def test_count_coverage(self):
        self.check_coverage(AggregateSpec("count", None))

    def test_sum_coverage(self):
        self.check_coverage(AggregateSpec("sum", "l_quantity"))

    def test_avg_coverage(self):
        self.check_coverage(AggregateSpec("avg", "l_quantity"))


class TestEndToEndCoverage:
    def test_adaptive_stopping_keeps_coverage(self):
        pred = predicate_for_skew(2)
        spec = dataset_spec_for_scale(0.002, num_partitions=32)
        data = build_materialized_dataset(spec, {pred: 0.0}, seed=0, selectivity=0.2)
        dfs = DistributedFileSystem(paper_topology().storage_locations())
        dfs.write_dataset("/cal", data)
        splits = dfs.open_splits("/cal")
        truth = float(data.total_matches(pred.name))

        covered = 0
        scanned = []
        for seed in range(20):
            conf = make_approx_conf(
                name=f"cal-{seed}",
                input_path="/cal",
                predicate=pred,
                aggregate=AggregateSpec("count", None),
                error_pct=5.0,
            )
            result = LocalRunner(seed=seed).run(conf, splits)
            [group] = result.approx["groups"]
            assert result.approx["target_met"]
            covered += abs(group["estimate"] - truth) <= group["half_width"]
            scanned.append(result.splits_processed)
        assert covered >= 18  # >= 90% with the stopping rule engaged
        # The early stop must actually engage: on average well below a
        # full scan (32 splits).
        assert sum(scanned) / len(scanned) < 24
