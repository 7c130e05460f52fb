"""TaskTrackers: per-node task execution.

A TaskTracker launches a task on its node, charges the cost model for a
duration based on input volume, locality and current contention, and
reports completion back to the JobTracker. When the split's rows are
materialized and the job carries a real mapper, the user code is actually
executed (so the simulated substrate produces real samples on small
data); otherwise the split's profile supplies the output count.
"""

from __future__ import annotations

import weakref
from typing import TYPE_CHECKING, Any, Callable

from repro.cluster.costmodel import CostModel
from repro.cluster.node import Node, RunningTask
from repro.cluster.topology import ClusterTopology
from repro.engine.job import Job
from repro.engine.mapreduce import ReduceContext
from repro.engine.shuffle import group_outputs
from repro.engine.task import MapTask, ReduceTask
from repro.errors import JobError
from repro.scan.engine import run_map_task
from repro.sim.simulator import Simulator

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.engine.jobtracker import JobTracker


class TaskTracker:
    """Executes tasks on one node of the simulated cluster."""

    def __init__(
        self,
        sim: Simulator,
        node: Node,
        topology: ClusterTopology,
        cost_model: CostModel,
        jobtracker: "JobTracker",
        failure_injector=None,
        straggler_model=None,
    ) -> None:
        self._sim = sim
        self.node = node
        self._topology = topology
        self._cost = cost_model
        # Weak: the JobTracker owns its TaskTrackers, so a strong
        # back-reference would leave every cluster in a reference cycle.
        self._jobtracker = weakref.proxy(jobtracker)
        self._failures = failure_injector
        self._stragglers = straggler_model

    def _jitter(self, duration: float, overhead: float) -> float:
        """Apply straggler noise to a task's data-path time (not overhead)."""
        if self._stragglers is None:
            return duration
        return overhead + (duration - overhead) * self._stragglers.multiplier()

    # ------------------------------------------------------------------
    # Map tasks
    # ------------------------------------------------------------------
    def launch_map(self, job: Job, task: MapTask) -> None:
        node = self.node
        split = task.split
        # Read from the replica on this node when one exists; remote
        # reads go to the primary replica.
        replica = split.replica_on(node.node_id)
        local = replica is not None
        source = replica if local else split.location
        storage_node = self._topology.node(source.node_id)
        disk_id = source.disk_id

        # The reader occupies a slot here but consumes bandwidth on the
        # disk that stores the split (possibly on another node).
        storage_node.add_disk_reader(disk_id)
        readers = storage_node.disk_readers(disk_id)
        cpu_contention = max(1.0, (node.running_map_tasks + 1) / node.spec.cores)
        split_bytes = split.num_bytes
        duration = self._jitter(
            self._cost.map_task_duration(
                split_bytes=split_bytes,
                split_records=split.num_records,
                local=local,
                disk_readers=readers,
                cpu_contention=cpu_contention,
            ),
            self._cost.map_task_overhead,
        )
        read_rate = split_bytes / duration if duration > 0 else 0.0

        now = self._sim.now
        task.mark_running(node.node_id, local, now)
        node.start_task(
            RunningTask(
                attempt_id=task.task_id,
                kind="map",
                disk_id=disk_id if local else None,
                read_rate_bps=read_rate,
                cpu_fraction=1.0,
                start_time=now,
            )
        )
        if local:
            node.local_map_tasks += 1
        else:
            node.remote_map_tasks += 1
        self._sim.schedule(
            duration,
            self._finish_map,
            job,
            task,
            storage_node,
            disk_id,
            label=f"map-finish:{task.task_id}",
        )

    def _finish_map(
        self, job: Job, task: MapTask, storage_node: Node, disk_id: int
    ) -> None:
        self.node.finish_task(task.task_id)
        storage_node.remove_disk_reader(disk_id)
        if self._failures is not None and self._failures.should_fail_map(
            task, self.node.node_id
        ):
            # The failed attempt consumed its slot and disk time but
            # produces nothing; the JobTracker decides retry vs kill.
            task.mark_failed(self._sim.now)
            self._jobtracker.on_map_failed(job, task)
            return
        records, outputs, output_data = self._execute_map(job, task)
        task.mark_succeeded(
            self._sim.now,
            records_processed=records,
            outputs_produced=outputs,
            output_data=output_data,
        )
        self._jobtracker.on_map_complete(job, task, local=bool(task.local))

    def _execute_map(
        self, job: Job, task: MapTask
    ) -> tuple[int, int, list[tuple[Any, Any]] | None]:
        """Run the real mapper when possible, else consult the profile."""
        split = task.split
        conf = job.conf
        if split.materialized and conf.mapper_factory is not None:
            trace = self._jobtracker.trace
            span_sink = None
            if trace is not None:
                now = self._sim.now

                def span_sink(span) -> None:
                    trace.scan_span(
                        now,
                        job_id=job.job_id,
                        task_id=task.task_id,
                        split_id=span.split_id,
                        mode=span.mode,
                        rows=span.rows,
                        outputs=span.outputs,
                        elapsed_s=span.elapsed_s,
                    )

            context = run_map_task(conf, split, span_sink=span_sink)
            return context.records_read, context.outputs_produced, context.outputs
        if conf.profile_outputs is None:
            raise JobError(
                f"job {job.job_id}: split {split.split_id} has no materialized "
                "rows and the JobConf defines no profile_outputs function"
            )
        outputs = conf.profile_outputs(split)
        if outputs < 0:
            raise JobError(
                f"job {job.job_id}: profile_outputs returned {outputs} (< 0)"
            )
        return split.num_records, outputs, None

    # ------------------------------------------------------------------
    # Reduce tasks
    # ------------------------------------------------------------------
    def launch_reduce(self, job: Job, task: ReduceTask) -> None:
        shuffle_records = job.outputs_produced
        duration = self._jitter(
            self._cost.reduce_task_duration(shuffle_records=shuffle_records),
            self._cost.reduce_task_overhead,
        )
        task.mark_running(self.node.node_id, self._sim.now)
        shuffle_bytes = shuffle_records * self._cost.output_record_bytes
        self.node.start_task(
            RunningTask(
                attempt_id=task.task_id,
                kind="reduce",
                disk_id=None,
                read_rate_bps=shuffle_bytes / duration if duration > 0 else 0.0,
                cpu_fraction=1.0,
                start_time=self._sim.now,
            )
        )
        self._sim.schedule(
            duration, self._finish_reduce, job, task, label=f"reduce-finish:{task.task_id}"
        )

    def _finish_reduce(self, job: Job, task: ReduceTask) -> None:
        outputs, output_data = self._execute_reduce(job)
        self.node.finish_task(task.task_id)
        task.mark_succeeded(
            self._sim.now,
            input_records=job.outputs_produced,
            outputs_produced=outputs,
            output_data=output_data,
        )
        self._jobtracker.on_reduce_complete(job, task)

    def _execute_reduce(self, job: Job) -> tuple[int, list[tuple[Any, Any]] | None]:
        conf = job.conf
        map_outputs = [t.output_data for t in job.completed_maps]
        if conf.reducer_factory is not None and all(
            data is not None for data in map_outputs
        ):
            context = ReduceContext()
            reducer = conf.reducer_factory()
            reducer.run(group_outputs(map_outputs), context)  # type: ignore[arg-type]
            return len(context.outputs), context.outputs
        reduce_fn: Callable[[int], int] = conf_profile_reduce(conf)
        outputs = reduce_fn(job.outputs_produced)
        return outputs, None


def conf_profile_reduce(conf) -> Callable[[int], int]:
    """The profile-mode reduce output function for a JobConf.

    Sampling jobs cap output at the sample size k (Algorithm 2); plain
    jobs pass map output through unchanged.
    """
    k = conf.sample_size
    if k is not None:
        return lambda total: min(total, k)
    return lambda total: total
