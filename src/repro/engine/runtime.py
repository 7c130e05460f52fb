"""LocalRunner: real, in-process MapReduce execution.

Runs a job's actual map and reduce functions over materialized splits,
with no simulated time — the correctness substrate. Dynamic jobs execute
the full Input Provider protocol synchronously: grab a batch, run its
map tasks for real, report progress, evaluate, repeat until end of
input, then shuffle and reduce.

Because execution is synchronous, the LocalRunner models the cluster
status handed to providers with a fixed virtual slot pool
(:data:`VIRTUAL_MAP_SLOTS`): all slots are "available" at every
evaluation (nothing else is running), so policies degrade gracefully to
their idle-cluster grab limits.
"""

from __future__ import annotations

import os
import pickle
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

from repro.core.input_provider import (
    InputProvider,
    ProviderRegistry,
    ResponseKind,
    default_providers,
)
from repro.core.policy import PolicyRegistry, paper_policies
from repro.dfs.split import InputSplit
from repro.engine.job import (
    ClusterStatus,
    JobProgress,
    JobResult,
    JobState,
    job_metrics_snapshot,
)
from repro.engine.jobconf import JobConf
from repro.engine.mapreduce import ReduceContext
from repro.engine.shuffle import group_outputs
from repro.errors import JobConfError, JobError
from repro.obs.trace import record_provider_evaluation
from repro.scan.engine import ScanSpan, run_map_task
from repro.scan.proc import (
    TELEMETRY_CHUNK_ROWS,
    ScanTask,
    ScanWorkers,
    WorkerDelta,
    materialize_outputs,
)
from repro.sim.random_source import RandomSource

VIRTUAL_MAP_SLOTS = 40
"""Map slots in the cluster status a LocalRunner hands its providers:
all of them free at every evaluation."""

MAP_EXECUTORS = ("thread", "process")
"""How the LocalRunner parallelizes a map batch across workers."""

#: Environment defaults, so existing entry points (tests, CI suites) can
#: be switched to the process executor without changing call sites.
MAP_EXECUTOR_ENV = "REPRO_MAP_EXECUTOR"
MAP_WORKERS_ENV = "REPRO_MAP_WORKERS"


@dataclass
class LocalMapResult:
    """Outcome of one locally executed map task."""

    split: InputSplit
    records_processed: int
    outputs: list
    span: ScanSpan | None = None
    """Scan timing, captured only when a trace recorder is attached."""


class LocalRunner:
    """Executes MapReduce jobs in process, over materialized splits."""

    def __init__(
        self,
        *,
        policies: PolicyRegistry | None = None,
        providers: ProviderRegistry | None = None,
        seed: int = 0,
        map_workers: int | None = None,
        trace=None,
        map_executor: str | None = None,
    ) -> None:
        if map_executor is None:
            map_executor = os.environ.get(MAP_EXECUTOR_ENV) or "thread"
        if map_executor not in MAP_EXECUTORS:
            raise JobConfError(
                f"unknown map executor {map_executor!r}; one of {MAP_EXECUTORS}"
            )
        if map_workers is None:
            env_workers = os.environ.get(MAP_WORKERS_ENV)
            try:
                map_workers = int(env_workers) if env_workers else 1
            except ValueError:
                raise JobConfError(
                    f"{MAP_WORKERS_ENV} must be an integer, got {env_workers!r}"
                ) from None
        if map_workers < 1:
            raise JobConfError(f"map_workers must be >= 1, got {map_workers}")
        self._policies = policies or paper_policies()
        self._providers = providers or default_providers()
        self._random = RandomSource(seed)
        self._map_workers = map_workers
        self._map_executor = map_executor
        self._workers: ScanWorkers | None = None
        self._runs = 0
        self.trace = trace
        """Optional :class:`repro.obs.trace.TraceRecorder`. Pure
        read-side: attaching one changes no job output bytes. Local
        execution has no simulated clock, so events carry time 0.0 and
        scan spans carry wall-clock durations only."""
        self._task_seq = 0

    # ------------------------------------------------------------------
    def run(self, conf: JobConf, splits: list[InputSplit]) -> JobResult:
        """Execute ``conf`` over ``splits`` and return its result.

        All splits must be materialized and the conf must define a
        mapper factory (real execution only — this runner never consults
        split profiles).
        """
        if conf.mapper_factory is None:
            raise JobConfError(f"job {conf.name!r}: LocalRunner needs a mapper_factory")
        if not splits:
            raise JobConfError(f"job {conf.name!r}: no input splits")
        for split in splits:
            if not split.materialized:
                raise JobError(
                    f"job {conf.name!r}: split {split.split_id} is not materialized; "
                    "LocalRunner executes real rows only"
                )
        self._runs += 1
        self._task_seq = 0
        job_id = f"local_{self._runs:06d}"
        if self.trace is not None:
            self.trace.record(
                0.0, "job_submitted", job_id, name=conf.name,
                dynamic=conf.is_dynamic, splits=len(splits),
                input_complete=not conf.is_dynamic,
                total_splits=len(splits),
                sample_size=conf.sample_size,
            )
        approx = None
        if conf.is_dynamic:
            map_results, evaluations, increments, provider = self._run_dynamic(
                conf, splits, job_id
            )
            pruned = provider.splits_pruned
            approx = provider.approx_summary()
        else:
            map_results = self._run_map_batch(conf, splits, job_id=job_id)
            evaluations, increments, pruned = 0, 1, 0

        output_data = self._run_reduce(conf, map_results)
        records = sum(r.records_processed for r in map_results)
        map_outputs = sum(len(r.outputs) for r in map_results)
        metrics = job_metrics_snapshot(
            [r.records_processed for r in map_results],
            records_processed=records,
            outputs_produced=map_outputs,
            records_pending=0,
            evaluations=evaluations,
            input_increments=increments,
            failed_map_attempts=0,
            splits_pruned=pruned,
        )
        if self.trace is not None:
            self.trace.record(0.0, "job_succeeded", job_id)
            self.trace.metrics_snapshot(0.0, scope="job", job_id=job_id, metrics=metrics)
        return JobResult(
            job_id=job_id,
            name=conf.name,
            state=JobState.SUCCEEDED,
            submit_time=0.0,
            finish_time=0.0,
            splits_total=len(splits),
            splits_processed=len(map_results),
            records_processed=records,
            map_outputs_produced=map_outputs,
            outputs_produced=len(output_data),
            output_data=output_data,
            evaluations=evaluations,
            input_increments=increments,
            metrics_snapshot=metrics,
            splits_pruned=pruned,
            approx=approx,
        )

    # ------------------------------------------------------------------
    # Dynamic protocol, synchronous
    # ------------------------------------------------------------------
    def _run_dynamic(
        self, conf: JobConf, splits: list[InputSplit], job_id: str
    ) -> tuple[list[LocalMapResult], int, int, InputProvider]:
        conf.validate_dynamic()
        policy = self._policies.get(conf.policy_name)  # type: ignore[arg-type]
        provider = self._providers.create(conf.input_provider_name)  # type: ignore[arg-type]
        rng = self._random.stream(f"local-provider:{conf.name}:{self._runs}")
        provider.initialize(splits, conf, policy, rng)

        total = len(splits)
        cluster = self._cluster_status()
        batch, complete = provider.initial_input(cluster)
        record_provider_evaluation(
            self.trace, 0.0, provider, job_id=job_id, phase="initial",
            progress=None, cluster=cluster,
            response_kind="END_OF_INPUT" if complete else "INPUT_AVAILABLE",
            splits=len(batch),
        )
        map_results: list[LocalMapResult] = []
        evaluations = 0
        increments = 1 if batch else 0
        idle_evaluations = 0

        while True:
            batch_results = self._run_map_batch(conf, batch, job_id=job_id)
            map_results.extend(batch_results)
            for result in batch_results:
                provider.observe_split(
                    result.split.split_id,
                    records=result.records_processed,
                    outputs=len(result.outputs),
                    rows=result.outputs,
                )
            if complete:
                break
            evaluations += 1
            progress = self._progress(conf, total, map_results)
            cluster = self._cluster_status()
            response = provider.evaluate(progress, cluster)
            record_provider_evaluation(
                self.trace, 0.0, provider, job_id=job_id, phase="evaluate",
                progress=progress, cluster=cluster,
                response_kind=response.kind.name, splits=len(response.splits),
            )
            if response.kind is ResponseKind.END_OF_INPUT:
                break
            if response.kind is ResponseKind.INPUT_AVAILABLE:
                batch = list(response.splits)
                increments += 1
                idle_evaluations = 0
                continue
            # NO_INPUT_AVAILABLE: with synchronous execution nothing is
            # pending, so repeated waits cannot make progress.
            batch = []
            idle_evaluations += 1
            if idle_evaluations > 2:
                raise JobError(
                    f"job {conf.name!r}: provider waited {idle_evaluations} times "
                    "with no work in flight; the provider is livelocked"
                )
        return map_results, evaluations, increments, provider

    def _progress(
        self, conf: JobConf, total_splits: int, map_results: list[LocalMapResult]
    ) -> JobProgress:
        records = sum(r.records_processed for r in map_results)
        outputs = sum(len(r.outputs) for r in map_results)
        return JobProgress(
            job_id="local",
            total_splits_known=total_splits,
            splits_added=len(map_results),
            splits_completed=len(map_results),
            splits_pending=0,
            records_processed=records,
            outputs_produced=outputs,
            records_pending=0,
        )

    def _cluster_status(self) -> ClusterStatus:
        return ClusterStatus(
            total_map_slots=VIRTUAL_MAP_SLOTS,
            available_map_slots=VIRTUAL_MAP_SLOTS,
            running_map_tasks=0,
            queued_map_tasks=0,
        )

    # ------------------------------------------------------------------
    # Task execution
    # ------------------------------------------------------------------
    def _run_map(self, conf: JobConf, split: InputSplit) -> LocalMapResult:
        if self.trace is None:
            context = run_map_task(conf, split)
            span = None
        else:
            holder: list = []
            context = run_map_task(conf, split, span_sink=holder.append)
            span = holder[0]
        return LocalMapResult(
            split=split,
            records_processed=context.records_read,
            outputs=context.outputs,
            span=span,
        )

    def _run_map_batch(
        self, conf: JobConf, splits: list[InputSplit], *, job_id: str = "local"
    ) -> list[LocalMapResult]:
        """Run one grabbed batch's map tasks, optionally across a worker pool.

        Results are gathered in submission order, so serial and parallel
        execution produce byte-identical job output. The ``process``
        executor ships tasks as (path, file range, matcher source) to
        worker processes sharing the dataset's page-cache pages; it
        applies only when every split lives in an mmap dataset and the
        mapper's work reduces to a shippable scan spec — anything else
        falls back to the in-process path, which is always correct. Scan
        spans are emitted here, after the gather, so the trace order is
        submission order no matter how the pool interleaved the work.
        """
        results = None
        if self._map_executor == "process" and splits:
            results = self._run_map_batch_process(conf, splits, job_id=job_id)
        if results is None:
            results = self._run_map_batch_inline(conf, splits)
        if self.trace is not None:
            for result in results:
                span = result.span
                if span is None:
                    continue
                self._task_seq += 1
                self.trace.scan_span(
                    0.0,
                    job_id=job_id,
                    task_id=f"{job_id}_m_{self._task_seq:06d}",
                    split_id=span.split_id,
                    mode=span.mode,
                    rows=span.rows,
                    outputs=span.outputs,
                    elapsed_s=span.elapsed_s,
                )
        return results

    def _run_map_batch_inline(
        self, conf: JobConf, splits: list[InputSplit]
    ) -> list[LocalMapResult]:
        """Serial or thread-pool execution inside this process. Threads
        (not processes) because mapper factories are closures; map tasks
        share no mutable state, each getting its own mapper and context."""
        if self._map_workers == 1 or len(splits) <= 1:
            return [self._run_map(conf, split) for split in splits]
        workers = min(self._map_workers, len(splits))
        with ThreadPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(self._run_map, conf, split) for split in splits]
            return [future.result() for future in futures]

    def _run_map_batch_process(
        self, conf: JobConf, splits: list[InputSplit], *, job_id: str = "local"
    ) -> list[LocalMapResult] | None:
        """Ship the batch to the runner's worker processes; None means
        "fall back".

        Preconditions checked here, not assumed: the mapper must expose
        a scan-task spec, every split must reference an mmap dataset
        file, and every packed task must pickle (the program's own
        predicates all do, but a constant pool holding, say, a closure
        would not).

        The batch is dealt round-robin into ``min(map_workers, len(splits))``
        packed tasks (split *i* goes to task *i mod n*), so each worker
        pays one pickle, one pipe round trip and one file open per batch
        instead of one per split, and uneven LIMIT-k early exits spread
        across workers. The parent pickles each task once and sends it
        down worker *i*'s pipe (:class:`~repro.scan.proc.ScanWorkers`),
        forking the workers on the first process batch. Per-split results
        are put back in submission order. Workers run the in-process
        scan loop and return only match indices and counters; the
        mapper's own ``outputs`` builds each split's map outputs
        parent-side over its own mapping of the same file (row
        references for a sampling job, whose reducer builds the rows it
        returns), so bytes match serial execution exactly. Each split's
        worker-measured scan time becomes its trace
        ``scan_span.elapsed_s``, as an in-process scan's does.

        A failed send or receive on any worker's pipe (a worker died,
        idle or mid-task) stops every worker and runs this batch inline;
        the next process batch forks fresh workers. A task that raises
        in its worker, which stays up, reruns the batch inline here: an
        error of the scan itself raises as in serial execution, and one
        that only the worker met is reported, with the workers'
        tracebacks, as a ``RuntimeWarning`` once the inline run succeeds.

        When the runner's trace recorder has a listener (the telemetry
        hub, ``--progress``), tasks carry the job id and
        :data:`~repro.scan.proc.TELEMETRY_CHUNK_ROWS`, and each worker
        sends cumulative progress deltas down its pipe ahead of its
        results; each is published to the listeners as a
        ``worker_delta`` event as it arrives, while the job runs, and
        never logged. All of it is read-side: counters, indices, and
        output bytes are identical with or without a listener.
        """
        mapper = conf.mapper_factory()
        spec = mapper.scan_task_spec()
        if spec is None:
            return None
        refs = [split.mmap_ref for split in splits]
        if any(ref is None for ref in refs):
            return None
        listening = self.trace is not None and self.trace.listening
        count = min(self._map_workers, len(refs))
        tasks = [
            ScanTask(
                refs=tuple(refs[i::count]), spec=spec,
                job_id=job_id if listening else None,
                chunk_rows=TELEMETRY_CHUNK_ROWS,
            )
            for i in range(count)
        ]
        try:
            payloads = [pickle.dumps(task, pickle.HIGHEST_PROTOCOL) for task in tasks]
        except Exception:
            return None
        if self._workers is None:
            self._workers = ScanWorkers(self._map_workers)
        packed = self._workers.run(payloads, self._publish_delta)
        if packed is None:
            self._workers = None  # already stopped; the next batch forks anew
            return None
        failures = [reply for reply in packed if isinstance(reply, str)]
        if failures:
            inline = self._run_map_batch_inline(conf, splits)
            warnings.warn(
                "a map worker's task failed, and the batch ran in process:\n"
                + "".join(failures),
                RuntimeWarning,
                stacklevel=2,
            )
            return inline
        outcomes = [packed[i % count][i // count] for i in range(len(splits))]
        results: list[LocalMapResult] = []
        for split, outcome in zip(splits, outcomes):
            outputs = materialize_outputs(split.column_store(), outcome, mapper)
            span = None
            if self.trace is not None:
                # Workers run the scan loop run_map_task runs for this
                # mapper in process.
                span = ScanSpan(
                    split_id=split.split_id,
                    mode="batch",
                    rows=outcome.scanned,
                    outputs=len(outputs),
                    elapsed_s=outcome.scan_wall_s,
                )
            results.append(
                LocalMapResult(
                    split=split,
                    records_processed=outcome.scanned,
                    outputs=outputs,
                    span=span,
                )
            )
        return results

    def _publish_delta(self, delta: WorkerDelta) -> None:
        """Hand one worker progress delta to the recorder's listeners
        (only tasks stamped with a job id send any)."""
        self.trace.publish("worker_delta", 0.0, **vars(delta))

    def close(self) -> None:
        """Stop the worker processes, if any were started. A closed
        runner forks fresh workers on its next process batch."""
        if self._workers is not None:
            self._workers.close()
            self._workers = None

    def __enter__(self) -> "LocalRunner":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _run_reduce(self, conf: JobConf, map_results: list[LocalMapResult]) -> list:
        all_outputs = [r.outputs for r in map_results]
        if conf.num_reduce_tasks == 0 or conf.reducer_factory is None:
            return [pair for outputs in all_outputs for pair in outputs]
        context = ReduceContext()
        reducer = conf.reducer_factory()
        reducer.run(group_outputs(all_outputs), context)
        return context.outputs
