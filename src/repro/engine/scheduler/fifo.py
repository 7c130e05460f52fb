"""Hadoop's default FIFO scheduler.

Slots are offered to jobs in priority order and, within a priority, in
submission order — Hadoop 0.20's JobQueueTaskScheduler. The chosen job
takes the slot, preferring a split stored on the offering node and
otherwise accepting a non-local one immediately (no delay scheduling),
which is why the paper measures relatively low locality (57%) but high
slot occupancy (44%) for it.
"""

from __future__ import annotations

from repro.cluster.node import Node
from repro.engine.job import Job
from repro.engine.scheduler.base import TaskScheduler
from repro.engine.task import MapTask


class FifoScheduler(TaskScheduler):
    name = "fifo"

    def order_jobs(self, jobs: list[Job]) -> list[Job]:
        return sorted(
            jobs, key=lambda job: (-job.conf.priority_rank, job.submit_time)
        )

    def choose_map_task(
        self, node: Node, jobs: list[Job], now: float
    ) -> MapTask | None:
        for job in jobs:
            task = job.pending_maps.pop_local(node.node_id)
            if task is None:
                task = job.pending_maps.pop_any()
            if task is not None:
                return task
        return None
