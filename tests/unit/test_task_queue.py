"""Unit tests for the pending-task queue and task state machines."""

import pytest

from repro.cluster import paper_topology
from repro.data import build_profiled_dataset, dataset_spec_for_scale, predicate_for_skew
from repro.dfs import DistributedFileSystem
from repro.engine.task import MapTask, PendingTaskQueue, ReduceTask, TaskState
from repro.errors import JobError


@pytest.fixture()
def splits():
    pred = predicate_for_skew(0)
    data = build_profiled_dataset(
        dataset_spec_for_scale(0.01, num_partitions=20), {pred: 0.0}, seed=0
    )
    dfs = DistributedFileSystem(paper_topology().storage_locations())
    dfs.write_dataset("/t", data)
    return dfs.open_splits("/t")


def make_task(split, i):
    return MapTask(task_id=f"m{i}", job_id="j", split=split)


class TestPendingTaskQueue:
    def test_pop_any_fifo_order(self, splits):
        queue = PendingTaskQueue()
        tasks = [make_task(s, i) for i, s in enumerate(splits[:5])]
        for task in tasks:
            queue.add(task)
        popped = [queue.pop_any() for _ in range(5)]
        assert popped == tasks
        assert queue.pop_any() is None

    def test_pop_local_prefers_node(self, splits):
        queue = PendingTaskQueue()
        for i, split in enumerate(splits[:10]):
            queue.add(make_task(split, i))
        target = splits[3].location.node_id
        task = queue.pop_local(target)
        assert task is not None
        assert task.split.location.node_id == target

    def test_pop_local_missing_node(self, splits):
        queue = PendingTaskQueue()
        queue.add(make_task(splits[0], 0))
        assert queue.pop_local("node99") is None

    def test_claimed_task_not_returned_twice(self, splits):
        queue = PendingTaskQueue()
        task = make_task(splits[0], 0)
        queue.add(task)
        node = splits[0].location.node_id
        assert queue.pop_local(node) is task
        assert queue.pop_any() is None
        assert queue.pop_local(node) is None

    def test_pop_any_then_local_consistent(self, splits):
        queue = PendingTaskQueue()
        task = make_task(splits[0], 0)
        queue.add(task)
        assert queue.pop_any() is task
        assert queue.pop_local(splits[0].location.node_id) is None

    def test_len_and_empty(self, splits):
        queue = PendingTaskQueue()
        assert queue.empty
        queue.add(make_task(splits[0], 0))
        queue.add(make_task(splits[1], 1))
        assert len(queue) == 2
        queue.pop_any()
        assert len(queue) == 1
        queue.pop_any()
        assert queue.empty


class TestMapTaskLifecycle:
    def test_happy_path(self, splits):
        task = make_task(splits[0], 0)
        task.mark_running("node00", True, 1.0)
        assert task.state is TaskState.RUNNING
        task.mark_succeeded(5.0, records_processed=100, outputs_produced=3)
        assert task.state is TaskState.SUCCEEDED
        assert task.duration == 4.0

    def test_double_start_rejected(self, splits):
        task = make_task(splits[0], 0)
        task.mark_running("node00", True, 1.0)
        with pytest.raises(JobError):
            task.mark_running("node00", True, 2.0)

    def test_finish_without_start_rejected(self, splits):
        task = make_task(splits[0], 0)
        with pytest.raises(JobError):
            task.mark_succeeded(1.0, records_processed=0, outputs_produced=0)

    def test_duration_before_finish_rejected(self, splits):
        task = make_task(splits[0], 0)
        with pytest.raises(JobError):
            _ = task.duration


class TestReduceTaskLifecycle:
    def test_happy_path(self):
        task = ReduceTask(task_id="r1", job_id="j")
        task.mark_running("node01", 2.0)
        task.mark_succeeded(9.0, input_records=50, outputs_produced=10)
        assert task.state is TaskState.SUCCEEDED
        assert task.input_records == 50

    def test_double_start_rejected(self):
        task = ReduceTask(task_id="r1", job_id="j")
        task.mark_running("node01", 2.0)
        with pytest.raises(JobError):
            task.mark_running("node01", 3.0)
