"""Slot counts and pending-queue sizes kept as integers match a recount.

``Node`` keeps its running map/reduce counts beside ``_running``, and
``PendingTaskQueue`` keeps a live count beside its lazily cleaned lists.
Random operation sequences hold both to a model that recounts.
"""

from dataclasses import dataclass

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.node import Node, NodeSpec, RunningTask
from repro.cluster.topology import ClusterTopology
from repro.dfs.split import StorageLocation
from repro.engine.task import MapTask, PendingTaskQueue
from repro.errors import ClusterConfigError

NODES = ("n0", "n1", "n2", "n3")

node_ops = st.lists(
    st.tuples(
        st.sampled_from(["start", "finish"]),
        st.sampled_from(["map", "reduce"]),
        st.integers(min_value=0, max_value=7),  # attempt id
        st.sampled_from(NODES[:2]),
    ),
    max_size=80,
)


def _recount(node: Node, kind: str) -> int:
    return sum(1 for task in node._running.values() if task.kind == kind)


class TestNodeSlotCounts:
    @settings(max_examples=200, deadline=None)
    @given(ops=node_ops, map_slots=st.integers(1, 4), reduce_slots=st.integers(0, 2))
    def test_counts_and_free_slots_match_a_recount(self, ops, map_slots, reduce_slots):
        topology = ClusterTopology(
            [NodeSpec(node_id, map_slots=map_slots, reduce_slots=reduce_slots) for node_id in NODES[:2]]
        )
        for op, kind, attempt, node_id in ops:
            node = topology.node(node_id)
            attempt_id = f"a{attempt}"
            if op == "start":
                slots = map_slots if kind == "map" else reduce_slots
                refused = attempt_id in node._running or _recount(node, kind) >= slots
                task = RunningTask(attempt_id, kind, None, 0.0, 1.0, 0.0)
                if refused:
                    with pytest.raises(ClusterConfigError):
                        node.start_task(task)
                else:
                    node.start_task(task)
            elif attempt_id in node._running:
                assert node.finish_task(attempt_id).attempt_id == attempt_id
            else:
                with pytest.raises(ClusterConfigError):
                    node.finish_task(attempt_id)
            for each in topology.nodes:
                maps, reduces = _recount(each, "map"), _recount(each, "reduce")
                assert each.running_map_tasks == maps
                assert each.running_reduce_tasks == reduces
                assert each.free_map_slots == map_slots - maps
                assert each.free_reduce_slots == reduce_slots - reduces
            running = sum(_recount(each, "map") for each in topology.nodes)
            assert topology.running_map_tasks == running
            assert topology.available_map_slots == topology.total_map_slots - running


@dataclass(frozen=True)
class FakeSplit:
    split_id: str
    replicas: tuple[StorageLocation, ...]


queue_ops = st.lists(
    st.one_of(
        st.tuples(st.just("add"), st.sets(st.sampled_from(NODES), min_size=1, max_size=3)),
        st.tuples(st.just("pop_local"), st.sampled_from(NODES + ("elsewhere",))),
        st.tuples(st.just("pop_any"), st.none()),
        st.tuples(st.just("retry"), st.integers(min_value=0, max_value=50)),
    ),
    max_size=120,
)


class TestPendingQueueCounts:
    @settings(max_examples=200, deadline=None)
    @given(ops=queue_ops)
    def test_len_and_empty_match_a_list_model(self, ops):
        queue = PendingTaskQueue()
        model: list[MapTask] = []  # pending tasks, oldest first
        popped: list[MapTask] = []
        for op, arg in ops:
            if op == "add":
                index = len(model) + len(popped)
                replicas = tuple(StorageLocation(node, 0) for node in sorted(arg))
                task = MapTask(f"t{index}", "j", FakeSplit(f"/f:{index}", replicas))
                queue.add(task)
                model.append(task)
            elif op == "pop_local":
                expected = next(
                    (t for t in model if any(r.node_id == arg for r in t.split.replicas)),
                    None,
                )
                got = queue.pop_local(arg)
                assert got is expected
            elif op == "pop_any":
                expected = model[0] if model else None
                got = queue.pop_any()
                assert got is expected
            else:
                # A popped attempt runs, fails and re-enters as its retry.
                if not popped:
                    continue
                task = popped.pop(arg % len(popped))
                task.mark_running("n0", True, 0.0)
                task.mark_failed(1.0)
                retry = task.retry()
                queue.add(retry)
                model.append(retry)
                got = None
            if op in ("pop_local", "pop_any") and got is not None:
                model.remove(got)
                popped.append(got)
            assert len(queue) == len(model)
            assert queue.empty is (not model)
