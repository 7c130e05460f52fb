"""Property-based tests for engine data structures."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import SelectivityEstimator
from repro.data.datasets import PartitionData
from repro.dfs.dfs import normalize_path
from repro.dfs.split import InputSplit, StorageLocation
from repro.engine.shuffle import group_outputs
from repro.engine.task import MapTask, PendingTaskQueue


def make_split(index: int, node: str) -> InputSplit:
    payload = PartitionData(index=index, num_records=10, num_bytes=1000)
    return InputSplit(file_path="/f", payload=payload, replicas=(StorageLocation(node, 0),))


class TestPendingQueueModel:
    """Model-based test: the queue against a reference implementation."""

    @given(
        ops=st.lists(
            st.one_of(
                st.tuples(st.just("add"), st.integers(0, 9)),        # node id
                st.tuples(st.just("pop_local"), st.integers(0, 9)),
                st.tuples(st.just("pop_any"), st.just(0)),
            ),
            min_size=0,
            max_size=80,
        )
    )
    @settings(max_examples=100)
    def test_against_reference_model(self, ops):
        queue = PendingTaskQueue()
        reference: list[MapTask] = []  # FIFO of unclaimed tasks
        counter = 0
        for op, arg in ops:
            if op == "add":
                counter += 1
                task = MapTask(
                    task_id=f"t{counter}",
                    job_id="j",
                    split=make_split(counter, f"node{arg}"),
                )
                queue.add(task)
                reference.append(task)
            elif op == "pop_local":
                node = f"node{arg}"
                expected = next(
                    (t for t in reference if t.split.location.node_id == node),
                    None,
                )
                actual = queue.pop_local(node)
                assert actual is expected
                if expected is not None:
                    reference.remove(expected)
            else:  # pop_any
                expected = reference[0] if reference else None
                actual = queue.pop_any()
                assert actual is expected
                if expected is not None:
                    reference.remove(expected)
            assert len(queue) == len(reference)
            assert queue.empty == (not reference)


class TestShuffleProperties:
    pairs = st.lists(
        st.lists(
            st.tuples(st.integers(0, 5), st.integers(-100, 100)),
            min_size=0,
            max_size=20,
        ),
        min_size=0,
        max_size=8,
    )

    @given(task_outputs=pairs)
    def test_grouping_preserves_every_value(self, task_outputs):
        grouped = group_outputs(task_outputs)
        flat_in = sorted(
            (key, value) for outputs in task_outputs for key, value in outputs
        )
        flat_out = sorted(
            (key, value) for key, values in grouped for value in values
        )
        assert flat_in == flat_out

    @given(task_outputs=pairs)
    def test_keys_unique_and_sorted(self, task_outputs):
        grouped = group_outputs(task_outputs)
        keys = [key for key, _values in grouped]
        assert len(keys) == len(set(keys))
        assert keys == sorted(keys, key=str)


class TestSelectivityEstimatorProperties:
    @given(
        steps=st.lists(
            st.tuples(st.integers(0, 1000), st.integers(0, 1000)),
            min_size=1,
            max_size=20,
        )
    )
    def test_estimate_stays_a_probability(self, steps):
        estimator = SelectivityEstimator()
        records, matches = 0, 0
        for record_increment, match_increment in steps:
            records += record_increment
            matches += min(match_increment, record_increment)
            estimator.observe_totals(records, matches)
            estimate = estimator.estimate
            if records == 0:
                assert estimate is None
            else:
                assert 0.0 <= estimate <= 1.0

    @given(
        records=st.integers(1, 10**9),
        matches=st.integers(0, 10**9),
        needed=st.floats(min_value=0.001, max_value=1e6),
    )
    def test_records_needed_round_trips(self, records, matches, needed):
        matches = min(matches, records)
        estimator = SelectivityEstimator()
        estimator.observe_totals(records, matches)
        projected = estimator.records_needed(needed)
        if matches > 0:
            # Processing that many records is expected to yield >= needed.
            assert estimator.expected_matches(int(projected) + 1) >= needed * 0.999


class TestPathProperties:
    segments = st.lists(
        st.text(
            alphabet=st.characters(whitelist_categories=("Ll", "Nd")),
            min_size=1,
            max_size=8,
        ),
        min_size=1,
        max_size=5,
    )

    @given(segments=segments, extra_slashes=st.integers(0, 3))
    def test_normalize_is_idempotent(self, segments, extra_slashes):
        raw = ("/" * extra_slashes) + "/".join(segments)
        once = normalize_path(raw)
        assert normalize_path(once) == once
        assert once.startswith("/")
        assert "//" not in once
