"""The JobClient: client-side job submission and the dynamic-job loop.

Per the paper's design (§IV), the Input Provider is a *client-side*
entity: a buggy provider can then only hurt its own job, never the
JobTracker. The JobClient:

1. computes the input splits for the job's input file,
2. for a dynamic job, instantiates the provider, obtains the initial
   split set (GrabLimit-capped), and submits the job,
3. at every EvaluationInterval retrieves job status and cluster load from
   the JobTracker, applies the policy's WorkThreshold gate, invokes the
   provider, and relays its response ("add input" / "input complete") to
   the JobTracker.

Liveness note: the WorkThreshold gate is bypassed whenever the job has no
in-flight work left — otherwise a conservative policy (threshold 15%)
could wait forever on a job whose small grabbed batch finished without
reaching the threshold. The paper does not spell this case out; any
working implementation needs the same escape hatch.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable

from repro.core.input_provider import (
    InputProvider,
    ProviderRegistry,
    ResponseKind,
    default_providers,
)
from repro.core.policy import Policy, PolicyRegistry, paper_policies
from repro.dfs.dfs import DistributedFileSystem
from repro.engine.job import Job, JobResult
from repro.engine.jobconf import JobConf
from repro.engine.jobtracker import JobTracker
from repro.errors import JobConfError, JobError
from repro.obs.trace import record_provider_evaluation
from repro.sim.random_source import RandomSource
from repro.sim.simulator import PeriodicTask, Simulator

CompletionCallback = Callable[[JobResult], None]


@dataclass
class DynamicJobHandle:
    """Client-side state for one dynamic job."""

    job: Job
    provider: InputProvider
    policy: Policy
    evaluation_task: PeriodicTask | None = None
    splits_completed_at_last_eval: int = 0
    observed_maps: int = 0
    """How many completed map tasks have been fed to the provider's
    ``observe_split`` hook (an index into ``job.completed_maps``)."""


class JobClient:
    """Submits jobs and drives Input Providers for dynamic ones."""

    def __init__(
        self,
        sim: Simulator,
        jobtracker: JobTracker,
        dfs: DistributedFileSystem,
        *,
        policies: PolicyRegistry | None = None,
        providers: ProviderRegistry | None = None,
        random_source: RandomSource | None = None,
    ) -> None:
        self._sim = sim
        self._jobtracker = jobtracker
        self._dfs = dfs
        self._policies = policies or paper_policies()
        self._providers = providers or default_providers()
        self._random = random_source or RandomSource(0)
        self._handles: dict[str, DynamicJobHandle] = {}
        # Per-client counter: keeps provider RNG streams deterministic for
        # a given cluster regardless of what ran earlier in the process.
        self._submissions = itertools.count(1)

    @property
    def policies(self) -> PolicyRegistry:
        return self._policies

    @property
    def providers(self) -> ProviderRegistry:
        return self._providers

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------
    def submit(self, conf: JobConf, on_complete: CompletionCallback | None = None) -> Job:
        """Submit a job; returns the live Job object immediately."""
        splits = self._dfs.open_splits(conf.input_path)
        if not splits:
            raise JobConfError(f"job {conf.name!r}: input {conf.input_path} is empty")
        if not conf.is_dynamic:
            return self._jobtracker.submit_job(
                conf,
                splits,
                input_complete=True,
                total_splits_known=len(splits),
                listener=self._completion_listener(on_complete),
            )
        return self._submit_dynamic(conf, splits, on_complete)

    def _submit_dynamic(
        self,
        conf: JobConf,
        splits: list,
        on_complete: CompletionCallback | None,
    ) -> Job:
        conf.validate_dynamic()
        policy = self._policies.get(conf.policy_name)  # type: ignore[arg-type]
        provider = self._providers.create(conf.input_provider_name)  # type: ignore[arg-type]
        rng = self._random.stream(f"provider:{conf.name}:{next(self._submissions)}")
        provider.initialize(splits, conf, policy, rng)

        cluster = self._jobtracker.cluster_status()
        initial, complete = provider.initial_input(cluster)
        job = self._jobtracker.submit_job(
            conf,
            initial,
            input_complete=complete,
            total_splits_known=len(splits),
            listener=self._completion_listener(on_complete),
        )
        record_provider_evaluation(
            self._jobtracker.trace, self._sim.now, provider,
            job_id=job.job_id, phase="initial", progress=None, cluster=cluster,
            response_kind="END_OF_INPUT" if complete else "INPUT_AVAILABLE",
            splits=len(initial),
        )
        # The handle is kept even when the initial grab already completed
        # the input: the completion listener still needs the provider to
        # feed it the finished maps and collect its final summary.
        handle = DynamicJobHandle(job=job, provider=provider, policy=policy)
        if not complete:
            handle.evaluation_task = PeriodicTask(
                self._sim,
                policy.evaluation_interval,
                lambda: self._evaluate(handle),
                label=f"evaluate:{job.job_id}",
            )
        self._handles[job.job_id] = handle
        return job

    def _completion_listener(self, on_complete: CompletionCallback | None):
        def listener(job: Job) -> None:
            handle = self._handles.pop(job.job_id, None)
            if handle is not None:
                if handle.evaluation_task is not None:
                    handle.evaluation_task.cancel()
                # Maps that landed after the last evaluation (in-flight
                # work at END_OF_INPUT) still belong in the estimate.
                self._feed_completed(handle)
                job.approx = handle.provider.approx_summary()
                job.splits_pruned = handle.provider.splits_pruned
            if on_complete is not None:
                on_complete(job.to_result())

        return listener

    def _feed_completed(self, handle: DynamicJobHandle) -> None:
        """Feed newly completed map tasks to the provider's observe hook.

        ``output_data`` is the task's materialized map outputs when rows
        were really executed, or None in profile-only simulation — the
        provider decides what it can estimate from which.
        """
        completed = handle.job.completed_maps
        for task in completed[handle.observed_maps:]:
            handle.provider.observe_split(
                task.split.split_id,
                records=task.records_processed,
                outputs=task.outputs_produced,
                rows=task.output_data,
            )
        handle.observed_maps = len(completed)

    # ------------------------------------------------------------------
    # The evaluation loop
    # ------------------------------------------------------------------
    def _evaluate(self, handle: DynamicJobHandle) -> None:
        job = handle.job
        if job.finished or job.input_complete:
            if handle.evaluation_task is not None:
                handle.evaluation_task.cancel()
            return

        if not self._work_threshold_met(handle):
            return

        job.record_evaluation()
        handle.splits_completed_at_last_eval = job.splits_completed
        self._feed_completed(handle)
        progress = job.progress()
        cluster = self._jobtracker.cluster_status()
        response = handle.provider.evaluate(progress, cluster)
        record_provider_evaluation(
            self._jobtracker.trace, self._sim.now, handle.provider,
            job_id=job.job_id, phase="evaluate", progress=progress,
            cluster=cluster, response_kind=response.kind.name,
            splits=len(response.splits),
        )
        if response.kind is ResponseKind.END_OF_INPUT:
            if handle.evaluation_task is not None:
                handle.evaluation_task.cancel()
            self._jobtracker.complete_input(job.job_id)
        elif response.kind is ResponseKind.INPUT_AVAILABLE:
            self._jobtracker.add_input(job.job_id, list(response.splits))
        elif response.kind is not ResponseKind.NO_INPUT_AVAILABLE:
            raise JobError(f"provider returned unknown response {response.kind}")

    def _work_threshold_met(self, handle: DynamicJobHandle) -> bool:
        """The WorkThreshold gate, with the all-work-done escape hatch.

        The threshold percentage is applied to the splits the job has
        *added so far* (its current input), not the full input file. The
        paper's wording admits either reading; against the full input a
        conservative job's threshold (e.g. 15% of 800 partitions) could
        never be reached and every policy would degenerate into
        serialized all-done waves — which contradicts the measured
        Figure 6 ordering (LA best). See DESIGN.md §5.
        """
        job = handle.job
        if job.maps_done:
            return True
        threshold = handle.policy.work_threshold_splits(job.splits_added)
        newly_completed = job.splits_completed - handle.splits_completed_at_last_eval
        return newly_completed >= threshold
