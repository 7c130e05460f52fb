"""The Fair Scheduler (Zaharia et al., developed at U.C. Berkeley and
Facebook), as used in the paper's §V-F scheduler-impact experiment.

Two behaviours matter for reproducing the paper's observations:

1. **Fair sharing** — free slots go to the job that is furthest below its
   equal share of the cluster (smallest running-task count, with FIFO
   tie-break), instead of strictly to the oldest job.
2. **Delay scheduling** — a job offered a slot on a node where it has no
   local data *declines* and waits up to ``locality_delay`` seconds for a
   slot on a node that stores one of its splits. This raises locality
   (paper: 88% vs FIFO's 57%) at the cost of leaving slots idle
   (occupancy 18% vs 44%), which is exactly the throughput trade-off the
   paper reports.
"""

from __future__ import annotations

from repro.cluster.node import Node
from repro.engine.job import Job
from repro.engine.scheduler.base import TaskScheduler
from repro.engine.task import MapTask
from repro.errors import SchedulerError


class FairScheduler(TaskScheduler):
    name = "fair"

    def __init__(self, locality_delay: float = 8.0) -> None:
        if locality_delay < 0:
            raise SchedulerError(
                f"locality_delay must be >= 0, got {locality_delay}"
            )
        self.locality_delay = locality_delay

    def choose_map_task(
        self, node: Node, jobs: list[Job], now: float
    ) -> MapTask | None:
        if not jobs:
            return None
        # Most-starved job first: fewest running maps relative to equal
        # shares (equal weights make the share constant, so the running
        # count alone orders jobs); submission order breaks ties. The
        # running counts move with every assignment, so this is chosen
        # per offer, not in order_jobs.
        job = min(jobs, key=lambda job: (len(job.running_maps), job.submit_time))
        task = job.pending_maps.pop_local(node.node_id)
        if task is not None:
            job.locality_wait_start = None
            return task
        # No local work on this node: delay scheduling. The slot is held
        # for the most-starved job rather than offered down the list —
        # this strictness is what produces the paper's Fair Scheduler
        # signature (high locality, low slot occupancy, lower overall
        # throughput; §V-F measured 88% locality at 18% occupancy).
        if job.locality_wait_start is None:
            job.locality_wait_start = now
            return None
        if now - job.locality_wait_start >= self.locality_delay:
            task = job.pending_maps.pop_any()
            if task is not None:
                job.locality_wait_start = None
                return task
        return None

    def retry_delay(self) -> float | None:
        # Declined slots must be re-offered so waits can expire.
        return max(0.5, self.locality_delay / 4.0)
