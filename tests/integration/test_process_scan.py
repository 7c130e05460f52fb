"""Integration tests: the process map executor over mmap datasets.

The contract under test: ``LocalRunner(map_executor="process")`` is an
execution detail, never a semantic one — byte-identical job output,
identical ``records_read`` accounting (LIMIT-k short-circuit included),
one trace scan span per split; and graceful inline fallback
whenever a job cannot be shipped to worker processes (error-bounded
aggregates never are) or a worker dies.
"""

import multiprocessing
import os
import pickle
import signal

import pytest

import repro.core.sampling_job as sampling_job
import repro.engine.runtime as runtime
from repro import LocalRunner, make_sampling_conf, make_scan_conf
from repro.approx.job import finalize_rows, make_approx_conf
from repro.cluster import paper_topology
from repro.data import (
    LINEITEM_SCHEMA,
    build_materialized_dataset,
    dataset_spec_for_scale,
    predicate_for_skew,
)
from repro.data.predicates import ColumnCompare
from repro.dfs import DistributedFileSystem
from repro.engine.runtime import (
    MAP_EXECUTOR_ENV,
    MAP_EXECUTORS,
    MAP_WORKERS_ENV,
)
from repro.errors import HiveAnalysisError, JobConfError
from repro.hive import expressions
from repro.hive.expressions import compile_predicate
from repro.hive.parser import parse_statement
from repro.obs.trace import TraceRecorder
from repro.scan import codegen, proc
from repro.scan.proc import ScanWorkers
from repro.scan.proc import run_scan_task as proc_run_scan_task
from tests.unit.test_scan_equivalence import reference_sampling_job


@pytest.fixture(scope="module")
def mmap_splits(tmp_path_factory):
    """(predicate, dataset, splits) over an mmap-layout dataset."""
    root = tmp_path_factory.mktemp("mmapds")
    predicate = predicate_for_skew(0)
    spec = dataset_spec_for_scale(0.002, num_partitions=16)  # 12,000 rows
    dataset = build_materialized_dataset(
        spec,
        {predicate: 0.0},
        seed=0,
        selectivity=0.01,
        layout="mmap",
        mmap_path=str(root / "lineitem.rcs"),
    )
    dfs = DistributedFileSystem(paper_topology().storage_locations())
    dfs.write_dataset("/t", dataset)
    return predicate, dataset, dfs.open_splits("/t")


def where(condition):
    statement = parse_statement(f"SELECT * FROM lineitem WHERE {condition}")
    return compile_predicate(statement.where, LINEITEM_SCHEMA)


def fingerprint(result):
    return (
        result.output_data,
        result.records_processed,
        result.map_outputs_produced,
        result.splits_processed,
        result.evaluations,
        result.input_increments,
    )


class TestParity:
    @pytest.mark.parametrize("policy", [None, "LA", "C"])
    def test_process_matches_serial_exactly(self, mmap_splits, policy):
        predicate, _dataset, splits = mmap_splits
        conf = make_sampling_conf(
            name="q", input_path="/t", predicate=predicate, sample_size=40,
            policy_name=policy,
        )
        serial = LocalRunner(seed=7, map_executor="thread").run(conf, splits)
        trace = TraceRecorder()
        with LocalRunner(
            seed=7, map_executor="process", map_workers=2, trace=trace
        ) as runner:
            parallel = runner.run(conf, splits)
        assert fingerprint(parallel) == fingerprint(serial)
        # Both match the reference map tasks over the splits grabbed.
        order = [e["split_id"] for e in trace.raw_events if e["type"] == "scan_span"]
        assert len(order) == parallel.splits_processed
        assert (
            parallel.output_data,
            parallel.records_processed,
            parallel.map_outputs_produced,
        ) == reference_sampling_job(splits, order, predicate, 40)

    def test_scan_job_matches_serial_exactly(self, mmap_splits):
        predicate, dataset, splits = mmap_splits
        conf = make_scan_conf(
            name="q", input_path="/t", predicate=predicate,
            columns=("l_orderkey", "l_quantity"),
        )
        serial = LocalRunner().run(conf, splits)
        with LocalRunner(map_executor="process", map_workers=2) as runner:
            parallel = runner.run(conf, splits)
        assert fingerprint(parallel) == fingerprint(serial)
        assert serial.records_processed == dataset.spec.num_rows

    def test_pool_survives_repeated_runs(self, mmap_splits):
        predicate, _dataset, splits = mmap_splits
        conf = make_scan_conf(name="q", input_path="/t", predicate=predicate)
        with LocalRunner(map_executor="process", map_workers=2) as runner:
            first = runner.run(conf, splits)
            second = runner.run(conf, splits)
        assert first.output_data == second.output_data


def count_calls(monkeypatch, module, name):
    """Wrap ``module.name`` so each call appends its arguments to the
    returned list."""
    calls = []
    function = getattr(module, name)

    def counting(*args):
        calls.append(args)
        return function(*args)

    monkeypatch.setattr(module, name, counting)
    return calls


class TestRowsBuilt:
    """The sampling mapper emits each match as a row reference, and
    Algorithm 2's reducers choose by position alone, so the only rows
    built (``repro.core.sampling_job.row_at``) are the ones the job
    returns: ``outputs_produced`` of them, not ``map_outputs_produced``,
    on every map executor, for static and dynamic jobs and for the
    reservoir variant, with the inline run's answers."""

    @pytest.mark.parametrize("reservoir", [False, True], ids=["first_k", "reservoir"])
    @pytest.mark.parametrize("policy_name", [None, "LA"], ids=["static", "LA"])
    @pytest.mark.parametrize(
        "executor,workers",
        [("thread", 1), ("thread", 2), ("process", 2)],
        ids=["inline", "thread2", "process2"],
    )
    def test_one_row_built_per_returned_row(
        self, mmap_splits, monkeypatch, executor, workers, policy_name, reservoir
    ):
        predicate, _dataset, splits = mmap_splits
        k = 40  # of about 120 matches over the 16 splits
        conf = make_sampling_conf(
            name="q", input_path="/t", predicate=predicate, sample_size=k,
            policy_name=policy_name, reservoir=reservoir,
        )
        inline = LocalRunner(seed=3, map_executor="thread").run(conf, splits)
        built = count_calls(monkeypatch, sampling_job, "row_at")
        shipped = count_calls(monkeypatch, runtime, "materialize_outputs")
        with LocalRunner(seed=3, map_executor=executor, map_workers=workers) as runner:
            result = runner.run(conf, splits)
        # Every split of a process run shipped; the others ran in process.
        assert len(shipped) == (result.splits_processed if executor == "process" else 0)
        assert len(built) == len(result.output_data) == result.outputs_produced == k
        assert result.outputs_produced < result.map_outputs_produced
        assert result.output_data == inline.output_data


class TestShortCircuitAccounting:
    def test_limit_k_reads_identical_rows(self, mmap_splits):
        """The LIMIT-k short-circuit must stop the worker's scan at the
        same row the serial batch scan stops at — records_read is part
        of the job's semantics (the selectivity estimator consumes it)."""
        predicate, dataset, splits = mmap_splits
        conf = make_sampling_conf(
            name="q", input_path="/t", predicate=predicate, sample_size=5,
            policy_name=None,
        )
        serial = LocalRunner().run(conf, splits)
        with LocalRunner(map_executor="process", map_workers=2) as runner:
            parallel = runner.run(conf, splits)
        assert parallel.records_processed == serial.records_processed
        assert parallel.records_processed < dataset.spec.num_rows
        assert parallel.outputs_produced == 5


class TestStringColumns:
    """A string predicate that projects ``l_shipmode``: process runs must
    match serial runs byte for byte, LIMIT-k accounting included, also
    once the workers decode ``l_shipmode`` for partitions they scan
    again."""

    PREDICATE = where("l_shipmode = 'RAIL' AND l_tax = 0.0")

    def test_string_predicate_matches_serial_exactly(self, mmap_splits):
        _predicate, dataset, splits = mmap_splits
        k = 3
        confs = [
            make_sampling_conf(
                name="q", input_path="/t", predicate=self.PREDICATE, sample_size=k,
                policy_name=None, columns=("l_shipmode",),
            ),
            make_scan_conf(
                name="q", input_path="/t", predicate=self.PREDICATE,
                columns=("l_orderkey", "l_shipmode"),
            ),
        ]
        shipmodes = [p.column_store().columns["l_shipmode"] for p in dataset.partitions]
        # No test in this module scans l_shipmode in the parent before
        # this one, so the forked workers start from unread columns.
        assert all(column._reached == 0 for column in shipmodes)
        with LocalRunner(map_executor="process", map_workers=2) as runner:
            # Three full scans put every partition on one of the two
            # workers at least twice: each is decoded in some worker.
            rounds = [[runner.run(conf, splits) for conf in confs] for _ in range(3)]
        # The workers scanned; the parent only read hit rows.
        assert all(column._reached == 0 for column in shipmodes)
        serial = LocalRunner(map_executor="thread", map_workers=1)
        for results in rounds:
            for parallel, conf in zip(results, confs):
                expected = serial.run(conf, splits)
                assert fingerprint(parallel) == fingerprint(expected)
                assert pickle.dumps(parallel.output_data) == pickle.dumps(
                    expected.output_data
                )

        expected_records = 0
        expected_outputs = 0
        for partition in dataset.partitions:
            hits = 0
            for read, row in enumerate(partition.iter_rows(), start=1):
                if row["l_shipmode"] == "RAIL" and row["l_tax"] == 0.0:
                    hits += 1
                    if hits == k:
                        break
            expected_records += read
            expected_outputs += hits
        for limited, scanned in rounds:
            assert limited.records_processed == expected_records < dataset.spec.num_rows
            assert limited.map_outputs_produced == expected_outputs
            assert len(limited.output_data) == limited.outputs_produced == k
            assert all(row == {"l_shipmode": "RAIL"} for _key, row in limited.output_data)
            assert scanned.records_processed == dataset.spec.num_rows
            assert scanned.output_data


class TestFallback:
    def test_row_layout_falls_back_to_inline(self):
        predicate = predicate_for_skew(0)
        spec = dataset_spec_for_scale(0.001, num_partitions=8)
        dataset = build_materialized_dataset(
            spec, {predicate: 0.0}, seed=0, selectivity=0.01
        )
        dfs = DistributedFileSystem(paper_topology().storage_locations())
        dfs.write_dataset("/t", dataset)
        splits = dfs.open_splits("/t")
        conf = make_sampling_conf(
            name="q", input_path="/t", predicate=predicate, sample_size=10,
            policy_name=None,
        )
        serial = LocalRunner().run(conf, splits)
        with LocalRunner(map_executor="process", map_workers=2) as runner:
            fallback = runner.run(conf, splits)
        assert fingerprint(fallback) == fingerprint(serial)

    def test_mapper_without_spec_falls_back_to_inline(self, mmap_splits):
        from repro.engine.jobconf import JobConf
        from repro.engine.mapreduce import IdentityMapper

        _predicate, dataset, splits = mmap_splits
        conf = JobConf(
            name="ident", input_path="/t",
            mapper_factory=IdentityMapper,
            reducer_factory=None, num_reduce_tasks=0,
        )
        serial = LocalRunner().run(conf, splits)
        with LocalRunner(map_executor="process", map_workers=2) as runner:
            fallback = runner.run(conf, splits)
        assert fingerprint(fallback) == fingerprint(serial)
        assert fallback.records_processed == dataset.spec.num_rows


def spy_on_process_path(monkeypatch):
    """Fail any inline map task and record, per shipped batch, its size
    and how many tasks it sent down the workers' pipes."""

    def inline_map_task(*args, **kwargs):
        raise AssertionError("a batch fell back to the inline path")

    monkeypatch.setattr(runtime, "run_map_task", inline_map_task)
    submits = []
    run = ScanWorkers.run

    def counting_run(workers, payloads, on_delta):
        submits.extend(payloads)
        return run(workers, payloads, on_delta)

    monkeypatch.setattr(ScanWorkers, "run", counting_run)
    batches = []
    ship = LocalRunner._run_map_batch_process

    def recording_ship(runner, conf, splits, **kwargs):
        before = len(submits)
        results = ship(runner, conf, splits, **kwargs)
        batches.append((len(splits), len(submits) - before))
        return results

    monkeypatch.setattr(LocalRunner, "_run_map_batch_process", recording_ship)
    return batches


class TestProcessPathRuns:
    """The parity tests above would still pass if every batch quietly
    fell back inline; these pin that batches really ship, packed into
    one task per worker."""

    def test_scan_job_ships_one_task_per_worker(self, mmap_splits, monkeypatch):
        predicate, _dataset, splits = mmap_splits
        conf = make_scan_conf(name="q", input_path="/t", predicate=predicate)
        serial = LocalRunner().run(conf, splits)
        batches = spy_on_process_path(monkeypatch)
        with LocalRunner(map_executor="process", map_workers=2) as runner:
            parallel = runner.run(conf, splits)
        assert fingerprint(parallel) == fingerprint(serial)
        assert batches == [(len(splits), 2)]

    def test_limit_k_job_ships_one_task_per_worker(self, mmap_splits, monkeypatch):
        predicate, _dataset, splits = mmap_splits
        conf = make_sampling_conf(
            name="q", input_path="/t", predicate=predicate, sample_size=40,
            policy_name="LA",
        )
        serial = LocalRunner(seed=7).run(conf, splits)
        batches = spy_on_process_path(monkeypatch)
        with LocalRunner(seed=7, map_executor="process", map_workers=2) as runner:
            parallel = runner.run(conf, splits)
        assert fingerprint(parallel) == fingerprint(serial)
        assert sum(size for size, _ in batches) == parallel.splits_processed
        assert batches, "no batch reached the process path"
        for size, submitted in batches:
            assert submitted == min(2, size)

    def test_batch_ships_after_an_inline_compile_of_its_predicate(
        self, mmap_splits, monkeypatch
    ):
        """The inline matcher executes into its namespace; the spec's
        namespace must stay a separate, picklable dict, or every process
        batch would quietly run inline."""
        predicate, _dataset, splits = mmap_splits
        monkeypatch.setattr(codegen, "_source_cache", {})
        monkeypatch.setattr(codegen, "_batch_cache", {})
        conf = make_scan_conf(name="q", input_path="/t", predicate=predicate)
        serial = LocalRunner(map_executor="thread").run(conf, splits)
        assert predicate in codegen._batch_cache
        batches = spy_on_process_path(monkeypatch)
        with LocalRunner(map_executor="process", map_workers=2) as runner:
            parallel = runner.run(conf, splits)
        assert fingerprint(parallel) == fingerprint(serial)
        assert batches == [(len(splits), 2)]


class TestArithmeticFallback:
    """An arithmetic WHERE ships like any other predicate: its namespace
    names ``checked_arithmetic`` by module reference, with the operator
    and expression text as constants. What falls back is error handling:
    a task that raises in a worker is rerun inline, which raises the
    serial error while the workers stay up (an error only the worker
    meets is reported as a warning), and a task that does not pickle
    runs inline."""

    def test_arithmetic_where_ships_and_matches_serial(self, mmap_splits, monkeypatch):
        _predicate, _dataset, splits = mmap_splits
        predicate = where("l_quantity * 2 > 60")
        _source, namespace = codegen.batch_matcher_source(predicate)
        assert pickle.loads(pickle.dumps(namespace)) == namespace
        conf = make_sampling_conf(
            name="q", input_path="/t", predicate=predicate, sample_size=40,
            policy_name="LA",
        )
        serial = LocalRunner(seed=7, map_executor="thread").run(conf, splits)
        batches = spy_on_process_path(monkeypatch)
        with LocalRunner(seed=7, map_executor="process", map_workers=2) as runner:
            parallel = runner.run(conf, splits)
        assert batches, "no batch reached the process path"
        for size, submitted in batches:
            assert submitted == min(2, size)
        assert fingerprint(parallel) == fingerprint(serial)
        assert len(parallel.output_data) == 40

    def test_division_by_zero_raises_the_serial_error(
        self, mmap_splits, monkeypatch, capfd, recwarn
    ):
        predicate, _dataset, splits = mmap_splits
        conf = make_scan_conf(
            name="q", input_path="/t", predicate=where("l_quantity / 0 > 1")
        )
        with pytest.raises(HiveAnalysisError, match="division by zero") as serial:
            LocalRunner(map_executor="thread").run(conf, splits)
        replies = []
        run = ScanWorkers.run

        def recording_run(workers, payloads, on_delta):
            replies.append(run(workers, payloads, on_delta))
            return replies[-1]

        monkeypatch.setattr(ScanWorkers, "run", recording_run)
        started = []
        init = ScanWorkers.__init__

        def recording_init(workers, count):
            started.append(workers)
            init(workers, count)

        monkeypatch.setattr(ScanWorkers, "__init__", recording_init)
        before = worker_processes()
        with LocalRunner(map_executor="process", map_workers=2) as runner:
            with pytest.raises(HiveAnalysisError) as shipped:
                runner.run(conf, splits)
            # The batch shipped, each worker replied that its task raised,
            # and the inline rerun raised the serial error. The workers
            # stay up, and the next job ships to the same ones.
            assert started == [runner._workers]
            workers = worker_processes() - before
            assert len(workers) == 2
            assert all(worker.is_alive() for worker in workers)
            good = make_scan_conf(name="q", input_path="/t", predicate=predicate)
            batches = spy_on_process_path(monkeypatch)
            runner.run(good, splits)
            assert started == [runner._workers]
            assert worker_processes() - before == workers
        # Each worker replied with its task's traceback, not results.
        assert len(replies[0]) == 2
        assert all("division by zero" in reply for reply in replies[0])
        assert not any(isinstance(reply, str) for reply in replies[1])
        assert batches == [(len(splits), 2)]
        assert str(shipped.value) == str(serial.value)
        assert "Traceback" not in capfd.readouterr().err
        assert not [w for w in recwarn if w.category is RuntimeWarning]

    def test_an_error_only_a_worker_meets_is_reported(self, mmap_splits, monkeypatch):
        """A task that raises in the worker but not in process (here the
        workers' scan entry point, swapped before they fork) reruns
        inline, succeeds, and warns with the workers' tracebacks."""
        predicate, _dataset, splits = mmap_splits
        conf = make_scan_conf(name="q", input_path="/t", predicate=predicate)
        serial = LocalRunner(map_executor="thread").run(conf, splits)

        def failing_task(task, send):
            raise OSError("dataset file replaced")

        monkeypatch.setattr(proc, "run_scan_task", failing_task)
        before = worker_processes()
        with LocalRunner(map_executor="process", map_workers=2) as runner:
            with pytest.warns(RuntimeWarning, match="dataset file replaced"):
                parallel = runner.run(conf, splits)
            workers = worker_processes() - before
            assert len(workers) == 2
            assert all(worker.is_alive() for worker in workers)
        assert fingerprint(parallel) == fingerprint(serial)

    def test_task_that_does_not_pickle_runs_inline(self, mmap_splits, monkeypatch):
        """The pickle guard in ``_run_map_batch_process``, reached
        through a constant the program never builds: the arithmetic
        kernel wrapped in a local function."""
        _predicate, _dataset, splits = mmap_splits
        monkeypatch.setattr(codegen, "_source_cache", {})
        monkeypatch.setattr(codegen, "_batch_cache", {})
        kernel = expressions.checked_arithmetic

        def local_kernel(*args):
            return kernel(*args)

        monkeypatch.setattr(expressions, "checked_arithmetic", local_kernel)
        predicate = where("l_quantity * 2 > 60")
        _source, namespace = codegen.batch_matcher_source(predicate)
        with pytest.raises((pickle.PicklingError, AttributeError)):
            pickle.dumps(namespace)
        conf = make_sampling_conf(
            name="q", input_path="/t", predicate=predicate, sample_size=40,
            policy_name="LA",
        )
        serial = LocalRunner(seed=7, map_executor="thread").run(conf, splits)
        run_map_task = runtime.run_map_task
        batches = spy_on_process_path(monkeypatch)
        monkeypatch.setattr(runtime, "run_map_task", run_map_task)  # inline runs
        with LocalRunner(seed=7, map_executor="process", map_workers=2) as runner:
            parallel = runner.run(conf, splits)
        assert batches, "no batch reached the process path"
        assert all(submitted == 0 for _size, submitted in batches)
        assert fingerprint(parallel) == fingerprint(serial)


def answer(result):
    return (
        result.approx,
        finalize_rows(result.output_data, result.approx),
        result.output_data,
        result.records_processed,
        result.map_outputs_produced,
        result.splits_processed,
        result.evaluations,
    )


class TestApproxFallback:
    """``WITHIN ... ERROR`` jobs have no scan-task spec: the process
    executor runs every split inline, and the answers equal serial and
    thread execution exactly."""

    @pytest.mark.parametrize("group_by", [None, "l_returnflag"])
    @pytest.mark.parametrize(
        "aggregate", ["count", "sum:l_extendedprice", "avg:l_extendedprice"]
    )
    def test_process_executor_runs_inline_and_answers_match(
        self, mmap_splits, monkeypatch, aggregate, group_by
    ):
        _predicate, _dataset, splits = mmap_splits
        conf = make_approx_conf(
            name="agg", input_path="/t", predicate=ColumnCompare("l_quantity", "<=", 25),
            aggregate=aggregate, error_pct=5.0, group_by=group_by,
        )
        serial = LocalRunner(seed=3, map_executor="thread").run(conf, splits)
        with LocalRunner(seed=3, map_executor="thread", map_workers=2) as runner:
            threaded = runner.run(conf, splits)
        inline = []
        run_map_task = runtime.run_map_task

        def counting_map_task(conf, split, *args, **kwargs):
            inline.append(split.split_id)
            return run_map_task(conf, split, *args, **kwargs)

        def no_run(workers, payloads, on_delta):
            raise AssertionError("an approx batch was shipped to the workers")

        monkeypatch.setattr(runtime, "run_map_task", counting_map_task)
        monkeypatch.setattr(ScanWorkers, "run", no_run)
        with LocalRunner(seed=3, map_executor="process", map_workers=2) as runner:
            parallel = runner.run(conf, splits)
        assert answer(threaded) == answer(serial)
        assert answer(parallel) == answer(serial)
        assert len(inline) == parallel.splits_processed


def _kill_worker(*args):
    os._exit(1)


def worker_processes():
    return set(multiprocessing.active_children())


class TestBrokenPool:
    def test_dead_worker_falls_back_inline_then_pool_is_rebuilt(
        self, mmap_splits, monkeypatch
    ):
        predicate, _dataset, splits = mmap_splits
        conf = make_scan_conf(name="q", input_path="/t", predicate=predicate)
        serial = LocalRunner(map_executor="thread").run(conf, splits)
        closes = []
        close = ScanWorkers.close

        def recording_close(workers):
            closes.append(workers)
            return close(workers)

        monkeypatch.setattr(ScanWorkers, "close", recording_close)
        with LocalRunner(map_executor="process", map_workers=2) as runner:
            # Patched before the workers fork: they run the killer.
            monkeypatch.setattr(proc, "run_scan_task", _kill_worker)
            broken = runner.run(conf, splits)
            assert runner._workers is None
            assert len(closes) == 1
            monkeypatch.setattr(proc, "run_scan_task", proc_run_scan_task)
            batches = spy_on_process_path(monkeypatch)
            recovered = runner.run(conf, splits)
            assert runner._workers is not None
        assert fingerprint(broken) == fingerprint(serial)
        assert fingerprint(recovered) == fingerprint(serial)
        assert batches == [(len(splits), 2)]

    def test_worker_killed_while_idle_falls_back_inline_then_ships_again(
        self, mmap_splits, monkeypatch
    ):
        """A worker that dies between two jobs must not fail the second:
        it runs inline, byte-identical, and the third ships again."""
        predicate, _dataset, splits = mmap_splits
        conf = make_scan_conf(name="q", input_path="/t", predicate=predicate)
        serial = LocalRunner(map_executor="thread").run(conf, splits)
        before = worker_processes()
        with LocalRunner(map_executor="process", map_workers=2) as runner:
            first = runner.run(conf, splits)
            workers = worker_processes() - before
            assert len(workers) == 2
            victim = workers.pop()
            os.kill(victim.pid, signal.SIGKILL)
            victim.join(timeout=10)
            assert not victim.is_alive()
            second = runner.run(conf, splits)
            batches = spy_on_process_path(monkeypatch)
            third = runner.run(conf, splits)
        for result in (first, second, third):
            assert fingerprint(result) == fingerprint(serial)
            assert pickle.dumps(result.output_data) == pickle.dumps(serial.output_data)
        assert batches == [(len(splits), 2)]


class TestWorkerLifecycle:
    def test_close_stops_every_worker_and_a_second_close_is_a_no_op(
        self, mmap_splits
    ):
        predicate, _dataset, splits = mmap_splits
        conf = make_scan_conf(name="q", input_path="/t", predicate=predicate)
        before = worker_processes()
        runner = LocalRunner(map_executor="process", map_workers=2)
        runner.run(conf, splits)
        workers = worker_processes() - before
        assert len(workers) == 2
        runner.close()
        assert not any(worker.is_alive() for worker in workers)
        runner.close()
        assert worker_processes() - before == set()

    def test_closed_runner_forks_fresh_workers(self, mmap_splits, monkeypatch):
        predicate, _dataset, splits = mmap_splits
        conf = make_scan_conf(name="q", input_path="/t", predicate=predicate)
        before = worker_processes()
        with LocalRunner(map_executor="process", map_workers=2) as runner:
            first = runner.run(conf, splits)
            old = worker_processes() - before
            runner.close()
            batches = spy_on_process_path(monkeypatch)
            again = runner.run(conf, splits)
            fresh = worker_processes() - before
        assert len(fresh) == 2 and fresh.isdisjoint(old)
        assert not any(worker.is_alive() for worker in old | fresh)
        assert fingerprint(again) == fingerprint(first)
        assert batches == [(len(splits), 2)]


class TestConfiguration:
    def test_unknown_executor_lists_known_values(self):
        with pytest.raises(JobConfError) as err:
            LocalRunner(map_executor="gpu")
        for executor in MAP_EXECUTORS:
            assert executor in str(err.value)

    def test_env_default_selects_process_executor(self, monkeypatch, mmap_splits):
        predicate, _dataset, splits = mmap_splits
        monkeypatch.setenv(MAP_EXECUTOR_ENV, "process")
        monkeypatch.setenv(MAP_WORKERS_ENV, "2")
        conf = make_scan_conf(name="q", input_path="/t", predicate=predicate)
        with LocalRunner() as runner:
            assert runner._map_executor == "process"
            assert runner._map_workers == 2
            result = runner.run(conf, splits)
        serial = LocalRunner(map_executor="thread").run(conf, splits)
        assert fingerprint(result) == fingerprint(serial)

    def test_env_invalid_executor_rejected(self, monkeypatch):
        monkeypatch.setenv(MAP_EXECUTOR_ENV, "bogus")
        with pytest.raises(JobConfError, match="thread"):
            LocalRunner()

    def test_env_invalid_workers_rejected(self, monkeypatch):
        monkeypatch.setenv(MAP_WORKERS_ENV, "two")
        with pytest.raises(JobConfError, match="integer"):
            LocalRunner()

    def test_explicit_argument_beats_env(self, monkeypatch):
        monkeypatch.setenv(MAP_EXECUTOR_ENV, "process")
        runner = LocalRunner(map_executor="thread")
        assert runner._map_executor == "thread"


class TestObservability:
    def test_trace_spans_reconcile_under_process(self, mmap_splits):
        predicate, _dataset, splits = mmap_splits
        conf = make_scan_conf(name="q", input_path="/t", predicate=predicate)
        trace = TraceRecorder()
        with LocalRunner(
            map_executor="process", map_workers=2, trace=trace
        ) as runner:
            result = runner.run(conf, splits)
        spans = [e for e in trace.raw_events if e["type"] == "scan_span"]
        assert len(spans) == result.splits_processed == len(splits)
        assert sum(e["rows"] for e in spans) == result.records_processed
        assert sum(e["outputs"] for e in spans) == result.map_outputs_produced

    def test_trace_attachment_changes_no_output(self, mmap_splits):
        predicate, _dataset, splits = mmap_splits
        conf = make_scan_conf(name="q", input_path="/t", predicate=predicate)
        with LocalRunner(map_executor="process", map_workers=2) as runner:
            bare = runner.run(conf, splits)
        with LocalRunner(
            map_executor="process", map_workers=2, trace=TraceRecorder()
        ) as runner:
            traced = runner.run(conf, splits)
        assert fingerprint(traced) == fingerprint(bare)

    def test_raising_listener_is_detached_under_process_executor(
        self, mmap_splits, capsys
    ):
        # The detach-don't-propagate contract must hold when worker
        # processes feed the recorder through the result-drain path: the
        # job completes with identical output, the broken listener is
        # dropped after one stderr notice, and healthy listeners keep
        # receiving every logged event (and the listener-only
        # worker_delta events, which carry no seq).
        predicate, _dataset, splits = mmap_splits
        conf = make_scan_conf(name="q", input_path="/t", predicate=predicate)
        with LocalRunner(map_executor="process", map_workers=2) as runner:
            bare = runner.run(conf, splits)
        recorder = TraceRecorder()
        seen = []

        def broken(event):
            raise RuntimeError("listener bug")

        recorder.add_listener(broken)
        recorder.add_listener(seen.append)
        with LocalRunner(
            map_executor="process", map_workers=2, trace=recorder
        ) as runner:
            result = runner.run(conf, splits)
        assert fingerprint(result) == fingerprint(bare)
        err = capsys.readouterr().err
        assert err.count("RuntimeError") == 1  # detached after one notice
        logged = [e["type"] for e in seen if "seq" in e]
        assert logged == [e["type"] for e in recorder.raw_events]
        spans = [e for e in seen if e["type"] == "scan_span"]
        assert len(spans) == len(splits)


class TestBothSubstrates:
    def _datasets(self, tmp_path):
        predicate = predicate_for_skew(0)
        spec = dataset_spec_for_scale(0.001, num_partitions=8)
        kwargs = dict(seed=0, selectivity=0.01)
        row = build_materialized_dataset(spec, {predicate: 0.0}, **kwargs)
        mmapped = build_materialized_dataset(
            spec, {predicate: 0.0}, layout="mmap",
            mmap_path=str(tmp_path / "t.rcs"), **kwargs
        )
        return predicate, row, mmapped

    def test_local_substrate_layouts_agree(self, tmp_path):
        predicate, row, mmapped = self._datasets(tmp_path)
        results = []
        for dataset in (row, mmapped):
            dfs = DistributedFileSystem(paper_topology().storage_locations())
            dfs.write_dataset("/t", dataset)
            conf = make_sampling_conf(
                name="q", input_path="/t", predicate=predicate,
                sample_size=20, policy_name="LA",
            )
            results.append(
                fingerprint(LocalRunner(seed=2).run(conf, dfs.open_splits("/t")))
            )
        assert results[0] == results[1]

    def test_simulated_substrate_layouts_agree(self, tmp_path):
        import pickle

        from repro.engine.cluster_engine import SimulatedCluster

        predicate, row, mmapped = self._datasets(tmp_path)
        results = []
        for dataset in (row, mmapped):
            cluster = SimulatedCluster.paper_cluster(seed=0)
            cluster.load_dataset("/d", dataset)
            conf = make_sampling_conf(
                name="q", input_path="/d", predicate=predicate,
                sample_size=20, policy_name="LA",
            )
            result = cluster.run_job(conf)
            # Per-pair pickles pin value *types* too (1 vs 1.0 compare
            # equal but serialize differently); the whole-list pickle is
            # not comparable across layouts because the row layout may
            # share row objects where mmap decodes fresh ones.
            results.append(
                (
                    [pickle.dumps(pair) for pair in result.output_data],
                    result.records_processed,
                    result.map_outputs_produced,
                    result.splits_processed,
                    result.finish_time,
                    result.metrics_snapshot,
                )
            )
        assert results[0] == results[1]
