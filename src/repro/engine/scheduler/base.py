"""Scheduler interface.

In Hadoop, "the task of assigning empty slots to the pending tasks is
handled by the TaskScheduler" (paper §V-F). Here the JobTracker's
dispatch loop offers each free map slot to the scheduler, which picks a
pending map task (or declines, e.g. while delay-scheduling for
locality).
"""

from __future__ import annotations

from repro.cluster.node import Node
from repro.engine.job import Job
from repro.engine.task import MapTask


class TaskScheduler:
    """Chooses which pending map task gets a free slot on a node."""

    name = "base"

    def order_jobs(self, jobs: list[Job]) -> list[Job]:
        """A new list of one dispatch pass's jobs, in offer order.

        ``jobs`` are the schedulable jobs in submission order. The
        JobTracker calls this once per pass and hands the result to
        every :meth:`choose_map_task` of that pass, dropping a job once
        its queue empties, so an order that holds for the whole pass is
        computed here rather than per slot offer. Default: as given.
        """
        return list(jobs)

    def choose_map_task(
        self, node: Node, jobs: list[Job], now: float
    ) -> MapTask | None:
        """Claim and return a pending map task to run on ``node``.

        ``jobs`` are the pass's jobs with pending maps, in the order
        :meth:`order_jobs` returned. Claim at most the returned task.
        Returning None leaves the slot empty for now (the JobTracker
        will re-offer it after a task completes or a retry timer fires).
        """
        raise NotImplementedError

    def retry_delay(self) -> float | None:
        """How long to wait before re-offering slots that were declined.

        None means "no time-based retry needed" (slots are only re-offered
        on state changes). Schedulers that decline for locality reasons
        return their wait quantum.
        """
        return None
