"""Task state: map tasks and reduce tasks."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any

from repro.dfs.split import InputSplit
from repro.errors import JobError


class TaskState(enum.Enum):
    PENDING = "pending"
    RUNNING = "running"
    SUCCEEDED = "succeeded"
    FAILED = "failed"
    KILLED = "killed"


@dataclass
class MapTask:
    """One map task attempt: processes exactly one input split.

    Hadoop retries failed tasks as fresh attempts; :meth:`retry` mints
    the next attempt for the same split.
    """

    task_id: str
    job_id: str
    split: InputSplit
    state: TaskState = TaskState.PENDING
    node_id: str | None = None
    local: bool | None = None
    start_time: float | None = None
    finish_time: float | None = None
    records_processed: int = 0
    outputs_produced: int = 0
    output_data: list[tuple[Any, Any]] | None = None
    attempt: int = 1

    def mark_running(self, node_id: str, local: bool, time: float) -> None:
        if self.state is not TaskState.PENDING:
            raise JobError(f"map task {self.task_id} started twice (state={self.state})")
        self.state = TaskState.RUNNING
        self.node_id = node_id
        self.local = local
        self.start_time = time

    def mark_succeeded(
        self,
        time: float,
        *,
        records_processed: int,
        outputs_produced: int,
        output_data: list[tuple[Any, Any]] | None = None,
    ) -> None:
        if self.state is not TaskState.RUNNING:
            raise JobError(
                f"map task {self.task_id} finished without running (state={self.state})"
            )
        self.state = TaskState.SUCCEEDED
        self.finish_time = time
        self.records_processed = records_processed
        self.outputs_produced = outputs_produced
        self.output_data = output_data

    def mark_failed(self, time: float) -> None:
        if self.state is not TaskState.RUNNING:
            raise JobError(
                f"map task {self.task_id} failed without running (state={self.state})"
            )
        self.state = TaskState.FAILED
        self.finish_time = time

    def retry(self) -> "MapTask":
        """The next attempt for this task's split."""
        if self.state is not TaskState.FAILED:
            raise JobError(
                f"map task {self.task_id} cannot retry from state {self.state}"
            )
        base = self.task_id.rsplit("#", 1)[0]
        return MapTask(
            task_id=f"{base}#{self.attempt + 1}",
            job_id=self.job_id,
            split=self.split,
            attempt=self.attempt + 1,
        )

    @property
    def duration(self) -> float:
        if self.start_time is None or self.finish_time is None:
            raise JobError(f"map task {self.task_id} has not completed")
        return self.finish_time - self.start_time


@dataclass
class ReduceTask:
    """The reduce task (sampling jobs use exactly one)."""

    task_id: str
    job_id: str
    state: TaskState = TaskState.PENDING
    node_id: str | None = None
    start_time: float | None = None
    finish_time: float | None = None
    input_records: int = 0
    outputs_produced: int = 0
    output_data: list[tuple[Any, Any]] | None = None

    def mark_running(self, node_id: str, time: float) -> None:
        if self.state is not TaskState.PENDING:
            raise JobError(
                f"reduce task {self.task_id} started twice (state={self.state})"
            )
        self.state = TaskState.RUNNING
        self.node_id = node_id
        self.start_time = time

    def mark_succeeded(
        self,
        time: float,
        *,
        input_records: int,
        outputs_produced: int,
        output_data: list[tuple[Any, Any]] | None = None,
    ) -> None:
        if self.state is not TaskState.RUNNING:
            raise JobError(
                f"reduce task {self.task_id} finished without running (state={self.state})"
            )
        self.state = TaskState.SUCCEEDED
        self.finish_time = time
        self.input_records = input_records
        self.outputs_produced = outputs_produced
        self.output_data = output_data


@dataclass
class PendingTaskQueue:
    """Pending map tasks with O(1) local-task lookup and O(1) size.

    Maintains FIFO order overall and a per-node index keyed by the node
    that stores each task's split. Entries are removed lazily: a task may
    still sit in the other index after being claimed, so popping skips
    claimed entries. ``_live`` counts the unclaimed tasks (task ids are
    unique), so ``len`` and ``empty`` scan nothing.
    """

    _fifo: list[MapTask] = field(default_factory=list)
    _by_node: dict[str, list[MapTask]] = field(default_factory=dict)
    _fifo_head: int = 0
    _claimed: set = field(default_factory=set)
    _live: int = 0

    def add(self, task: MapTask) -> None:
        self._fifo.append(task)
        # Indexed under every replica's node (a split's replicas are on
        # distinct nodes): the task is local anywhere a copy lives.
        for replica in task.split.replicas:
            self._by_node.setdefault(replica.node_id, []).append(task)
        self._live += 1

    def __len__(self) -> int:
        return self._live

    @property
    def empty(self) -> bool:
        return not self._live

    def pop_local(self, node_id: str) -> MapTask | None:
        """Claim the oldest pending task whose split lives on ``node_id``."""
        queue = self._by_node.get(node_id)
        while queue:
            # A list, not a deque: a job keeps its queues after they
            # drain, an emptied list shrinks where a deque keeps a
            # 760-byte block, and pop(0) on these short lists is cheap.
            task = queue.pop(0)
            if task.task_id not in self._claimed:
                return self._claim(task)
        return None

    def pop_any(self) -> MapTask | None:
        """Claim the oldest pending task regardless of locality."""
        fifo = self._fifo
        while self._fifo_head < len(fifo):
            task = fifo[self._fifo_head]
            self._fifo_head += 1
            if task.task_id not in self._claimed:
                return self._claim(task)
        return None

    def _claim(self, task: MapTask) -> MapTask:
        self._claimed.add(task.task_id)
        self._live -= 1
        return task
