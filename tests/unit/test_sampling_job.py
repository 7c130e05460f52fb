"""Unit tests for Algorithms 1 & 2 and the sampling JobConf builders."""

import pytest

from repro.core.sampling_job import (
    DUMMY_KEY,
    SamplingMapper,
    SamplingReducer,
    ScanMapper,
    make_sampling_conf,
    make_scan_conf,
)
from repro.data.predicates import ColumnCompare, MarkerEquals
from repro.engine.jobconf import JobConf
from repro.engine.mapreduce import ReduceContext
from repro.errors import JobConfError
from repro.scan.columnar import ColumnStore
from repro.scan.engine import run_map_task
from tests.unit.test_reservoir_sampling import refs_to
from tests.unit.test_scan_equivalence import StoreSplit, built_rows


PRED = ColumnCompare("x", ">", 10)


def run_mapper(mapper, values):
    """One map task of ``mapper`` over rows ``{"x": v, "y": i}``."""
    split = StoreSplit(
        ColumnStore.from_rows([{"x": v, "y": i} for i, v in enumerate(values)])
    )
    conf = JobConf(name="t", input_path="/t", mapper_factory=lambda: mapper)
    return run_map_task(conf, split)


class TestSamplingMapper:
    def test_emits_only_matches_under_dummy_key(self):
        context = run_mapper(SamplingMapper(PRED, k=10), [5, 15, 20, 3])
        assert [key for key, _ in context.outputs] == [DUMMY_KEY, DUMMY_KEY]
        assert [row["x"] for _, row in built_rows(context.outputs)] == [15, 20]

    def test_caps_output_at_k(self):
        context = run_mapper(SamplingMapper(PRED, k=3), [20] * 10)
        assert context.outputs_produced == 3
        # LIMIT short-circuit: the task stops scanning once its own k is
        # reached, so records_read reflects only rows actually scanned.
        assert context.records_read == 3

    def test_short_circuit_scans_up_to_kth_match(self):
        # Matches at positions 1, 3, 5; k=2 stops right after position 3.
        context = run_mapper(SamplingMapper(PRED, k=2), [5, 20, 5, 20, 5, 20])
        assert context.outputs_produced == 2
        assert context.records_read == 4

    def test_projection(self):
        context = run_mapper(SamplingMapper(PRED, k=5, columns=("y",)), [20])
        assert built_rows(context.outputs) == [(DUMMY_KEY, {"y": 0})]

    def test_invalid_k_rejected(self):
        with pytest.raises(JobConfError):
            SamplingMapper(PRED, k=0)

    def test_state_is_per_instance(self):
        """Each map task caps independently (paper: each task assumes it
        may be the only one finding matches)."""
        a = run_mapper(SamplingMapper(PRED, k=2), [20] * 5)
        b = run_mapper(SamplingMapper(PRED, k=2), [20] * 5)
        assert a.outputs_produced == b.outputs_produced == 2


class TestSamplingReducer:
    def test_passes_through_when_under_k(self):
        context = ReduceContext()
        SamplingReducer(k=10).run([(DUMMY_KEY, refs_to([1, 2, 3]))], context)
        assert [row["v"] for _, row in context.outputs] == [1, 2, 3]

    def test_truncates_to_first_k(self):
        context = ReduceContext()
        SamplingReducer(k=2).run([(DUMMY_KEY, refs_to([1, 2, 3, 4]))], context)
        assert [row["v"] for _, row in context.outputs] == [1, 2]

    def test_invalid_k_rejected(self):
        with pytest.raises(JobConfError):
            SamplingReducer(k=-1)


class TestScanMapper:
    def test_no_cap(self):
        context = run_mapper(ScanMapper(PRED), [20] * 7)
        assert context.outputs_produced == 7


class TestMakeSamplingConf:
    def test_dynamic_params_set(self):
        conf = make_sampling_conf(
            name="q", input_path="/in", predicate=PRED, sample_size=100,
            policy_name="MA",
        )
        assert conf.is_dynamic
        assert conf.policy_name == "MA"
        assert conf.input_provider_name == "sampling"
        assert conf.sample_size == 100
        assert conf.num_reduce_tasks == 1

    def test_static_variant(self):
        conf = make_sampling_conf(
            name="q", input_path="/in", predicate=PRED, sample_size=100,
            policy_name=None,
        )
        assert not conf.is_dynamic

    def test_invalid_sample_size_rejected(self):
        with pytest.raises(JobConfError):
            make_sampling_conf(
                name="q", input_path="/in", predicate=PRED, sample_size=0
            )

    def test_mapper_factory_builds_fresh_instances(self):
        conf = make_sampling_conf(
            name="q", input_path="/in", predicate=PRED, sample_size=1,
        )
        assert conf.mapper_factory() is not conf.mapper_factory()


class TestProfileOutputs:
    def make_split(self, matches, records=1000):
        from repro.data.datasets import PartitionData
        from repro.dfs.split import InputSplit, StorageLocation

        payload = PartitionData(
            index=0, num_records=records, num_bytes=records * 100,
            match_counts={"mark": matches},
        )
        return InputSplit(
            file_path="/in", payload=payload, replicas=(StorageLocation("n0", 0),)
        )

    def test_sampling_profile_caps_at_k(self):
        pred = MarkerEquals("x", "mark")
        # name of MarkerEquals('x', 'mark') is 'x=mark'... use matching key
        conf = make_sampling_conf(
            name="q", input_path="/in", predicate=pred, sample_size=5,
        )
        split = self.make_split(matches=50)
        split.payload.match_counts[pred.name] = 50
        assert conf.profile_outputs(split) == 5

    def test_sampling_profile_below_k(self):
        pred = MarkerEquals("x", "mark")
        conf = make_sampling_conf(
            name="q", input_path="/in", predicate=pred, sample_size=500,
        )
        split = self.make_split(matches=0)
        split.payload.match_counts[pred.name] = 3
        assert conf.profile_outputs(split) == 3

    def test_missing_profile_rejected(self):
        pred = MarkerEquals("zz", "mark")
        conf = make_sampling_conf(
            name="q", input_path="/in", predicate=pred, sample_size=5,
        )
        with pytest.raises(JobConfError):
            conf.profile_outputs(self.make_split(matches=1))

    def test_scan_fallback_selectivity(self):
        pred = MarkerEquals("zz", "mark")
        conf = make_scan_conf(
            name="s", input_path="/in", predicate=pred,
            fallback_selectivity=0.01,
        )
        assert conf.profile_outputs(self.make_split(matches=0, records=1000)) == 10

    def test_scan_fallback_rounds_half_up(self):
        # Regression: round() rounds half to even, so expected counts
        # landing on .5 (2.5 -> 2, 0.5 -> 0) systematically undercount
        # across a sweep of profile-only splits. Half-up keeps them.
        pred = MarkerEquals("zz", "mark")
        conf = make_scan_conf(
            name="s", input_path="/in", predicate=pred,
            fallback_selectivity=0.01,
        )
        assert conf.profile_outputs(self.make_split(matches=0, records=50)) == 1
        assert conf.profile_outputs(self.make_split(matches=0, records=250)) == 3
        # 100 such splits must expect 300 matches, not round()'s 200.
        total = sum(
            conf.profile_outputs(self.make_split(matches=0, records=250))
            for _ in range(100)
        )
        assert total == 300

    def test_scan_conf_shape(self):
        conf = make_scan_conf(name="s", input_path="/in", predicate=PRED,
                              fallback_selectivity=0.0005)
        assert conf.num_reduce_tasks == 0
        assert not conf.is_dynamic
