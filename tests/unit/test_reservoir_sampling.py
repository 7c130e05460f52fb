"""Unit tests for the reservoir-sampling variant (paper footnote, §II-B)."""

import random
from collections import Counter

import pytest

from repro import LocalRunner, make_sampling_conf
from repro.cluster import paper_topology
from repro.core.sampling_job import DUMMY_KEY, ReservoirSamplingReducer
from repro.data import build_materialized_dataset, dataset_spec_for_scale, predicate_for_skew
from repro.dfs import DistributedFileSystem
from repro.engine.mapreduce import ReduceContext
from repro.errors import JobConfError


def refs_to(values):
    """Row references into an in-memory column ``v`` holding ``values``,
    as the sampling mapper emits them."""
    columns = {"v": values}
    return [(("v",), columns, index) for index in range(len(values))]


def run_reducer(values, k, seed=0):
    """The emitted rows' ``v`` when the reservoir reduces ``values``."""
    context = ReduceContext()
    ReservoirSamplingReducer(k, random.Random(seed)).run(
        [(DUMMY_KEY, refs_to(values))], context
    )
    return [row["v"] for _key, row in context.outputs]


class TestReservoirReducer:
    def test_under_k_passes_everything(self):
        assert sorted(run_reducer([1, 2, 3], k=10)) == [1, 2, 3]

    def test_exactly_k(self):
        assert sorted(run_reducer(list(range(5)), k=5)) == list(range(5))

    def test_over_k_returns_k_distinct_candidates(self):
        out = run_reducer(list(range(100)), k=10)
        assert len(out) == 10
        assert len(set(out)) == 10
        assert all(v in range(100) for v in out)

    def test_invalid_k_rejected(self):
        with pytest.raises(JobConfError):
            ReservoirSamplingReducer(0)

    def test_deterministic_under_seed(self):
        assert run_reducer(list(range(50)), 5, seed=3) == run_reducer(
            list(range(50)), 5, seed=3
        )

    def test_uniformity_over_candidates(self):
        """Each of 20 candidates should appear in a k=5 reservoir about
        25% of the time over many trials."""
        counts = Counter()
        trials = 4000
        for seed in range(trials):
            for value in run_reducer(list(range(20)), k=5, seed=seed):
                counts[value] += 1
        expected = trials * 5 / 20
        for value in range(20):
            assert abs(counts[value] - expected) < expected * 0.15

    def test_first_k_variant_is_head_biased_by_contrast(self):
        """Algorithm 2 (first-k) always returns the head — the bias the
        footnote's reservoir variant removes."""
        from repro.core.sampling_job import SamplingReducer

        context = ReduceContext()
        SamplingReducer(5).run([(DUMMY_KEY, refs_to(list(range(100))))], context)
        assert [row["v"] for _k, row in context.outputs] == [0, 1, 2, 3, 4]


class TestReservoirEndToEnd:
    def test_conf_flag_selects_reservoir_reduce(self):
        pred = predicate_for_skew(0)
        spec = dataset_spec_for_scale(0.002, num_partitions=8)
        data = build_materialized_dataset(spec, {pred: 0.0}, seed=0, selectivity=0.05)
        dfs = DistributedFileSystem(paper_topology().storage_locations())
        dfs.write_dataset("/t", data)
        splits = dfs.open_splits("/t")

        def run(reservoir, seed):
            conf = make_sampling_conf(
                name="r", input_path="/t", predicate=pred, sample_size=20,
                policy_name=None, reservoir=reservoir, reservoir_seed=seed,
            )
            return LocalRunner(seed=1).run(conf, splits)

        first_k = run(False, 0)
        reservoir_a = run(True, 1)
        reservoir_b = run(True, 2)
        for result in (first_k, reservoir_a, reservoir_b):
            assert result.outputs_produced == 20
            assert all(pred.matches(row) for row in result.sample)
        # Different reservoir seeds draw different samples; first-k is fixed.
        assert reservoir_a.sample != reservoir_b.sample
        assert run(False, 0).sample == first_k.sample
