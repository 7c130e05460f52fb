"""Command-line interface: ``python -m repro <command>``.

Commands mirror the deliverables:

* ``tables`` — print Tables I, II and III.
* ``figure4`` … ``figure8`` — regenerate one figure of the evaluation.
* ``sweep`` — regenerate a figure's grid in parallel with result caching
  (``python -m repro sweep --figure 5 --jobs 8``).
* ``sample`` — run a single sampling job on the simulated cluster.
* ``query`` — execute a SQL statement against a small demo warehouse
  with real (LocalRunner) execution.
* ``dataset`` — build and inspect on-disk mmap columnar datasets.
* ``trace`` / ``metrics`` — render a structured trace file written by
  ``--trace-out`` as a per-job timeline or as metric tables (or
  Prometheus text).
* ``top`` — live terminal dashboard over a run started with
  ``--metrics-port``.
* ``audit`` — replay a trace against the paper's policy contract and
  the task-accounting invariants; exits non-zero on any violation.
* ``doctor`` — diagnose a recorded run: its critical path and anomaly
  findings (stragglers, stalls, skew, drift) with suggested knob
  changes; ``--diff`` compares two traces.
* ``slo check`` — evaluate a JSON spec of run-quality objectives
  against traces, for CI gating.
* ``report`` — render one or more traces as a deterministic
  markdown/HTML comparative report (``--diff`` for two-trace A/B).
* ``policies`` — write the default policy catalogue as policy.xml.

The figure commands accept ``--jobs N`` (process-pool fan-out over the
grid's independent cells; ``--jobs 1`` is the plain serial path) and
``--cache`` (reuse cached cells from ``.repro_cache/``).
"""

from __future__ import annotations

import argparse
import sys
from contextlib import contextmanager, nullcontext
from pathlib import Path

from repro.core.policy_file import dump_policies
from repro.core.policy import paper_policies
from repro.core.sampling_job import make_sampling_conf
from repro.data.predicates import predicate_for_skew
from repro.experiments.heterogeneous import (
    class_throughput_rows,
    run_heterogeneous_experiment,
    scheduler_stats,
)
from repro.experiments.multiuser import (
    FIGURE6_HEADERS,
    figure6_rows,
    run_homogeneous_experiment,
)
from repro.experiments.report import render_table
from repro.experiments.setup import (
    PAPER_FRACTIONS,
    PAPER_POLICIES,
    PAPER_SCALES,
    dataset_for,
    single_user_cluster,
)
from repro.experiments.single_user import (
    partitions_rows,
    response_time_rows,
    run_single_user_experiment,
)
from repro.experiments.skew_figure import figure4_series
from repro.experiments.sweep import DEFAULT_CACHE_DIR, ResultCache, default_cache_dir
from repro.data.datasets import DATASET_LAYOUTS
from repro.engine.jobconf import STATS_MODES
from repro.engine.runtime import MAP_EXECUTORS
from repro.obs import TraceRecorder, load_trace
from repro.obs.render import render_metrics, render_timeline
from repro.experiments.tables import (
    TABLE1_HEADERS,
    TABLE2_HEADERS,
    TABLE3_HEADERS,
    table1_rows,
    table2_rows,
    table3_rows,
)
from repro.workload.user import UserClass


def _int_list(text: str) -> tuple[int, ...]:
    return tuple(int(part) for part in text.split(",") if part.strip())


def _float_list(text: str) -> tuple[float, ...]:
    return tuple(float(part) for part in text.split(",") if part.strip())


def _add_parallel_args(parser: argparse.ArgumentParser) -> None:
    """--jobs / --cache / --cache-dir, shared by the figure and sweep commands."""
    parser.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="run the grid's cells on N worker processes (default: 1, serial)",
    )
    parser.add_argument(
        "--cache", action="store_true",
        help="reuse unchanged cells from the result cache",
    )
    parser.add_argument(
        "--cache-dir", default=None,
        help=(
            f"result cache directory (default: $REPRO_CACHE_DIR or "
            f"{DEFAULT_CACHE_DIR})"
        ),
    )


def _cache_from(args) -> ResultCache | None:
    if getattr(args, "cache", False):
        return ResultCache(args.cache_dir or default_cache_dir())
    return None


def _add_trace_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--trace-out", default=None, metavar="FILE",
        help=(
            "write a structured JSONL trace of the run (inspect with "
            "'repro trace FILE' / 'repro metrics FILE')"
        ),
    )
    parser.add_argument(
        "--progress", action="store_true",
        help=(
            "print live progress lines to stderr as the run's trace "
            "events arrive (job output is unchanged)"
        ),
    )
    parser.add_argument(
        "--metrics-port", type=int, default=None, metavar="PORT",
        help=(
            "serve live telemetry over HTTP while the run executes: "
            "GET /metrics (Prometheus text) and /telemetry.json "
            "(watch with 'repro top --port PORT'); 0 picks a free port. "
            "Job output is unchanged"
        ),
    )


def _trace_recorder(args):
    """Context manager yielding a TraceRecorder, or None without
    --trace-out / --progress.

    ``--progress`` alone attaches the live reporter to an in-memory
    recorder (no file is written); combined with ``--trace-out`` the
    same recorder does both. Either way the reporter is a read-side
    listener writing to stderr, so stdout stays byte-identical.
    """
    trace_out = getattr(args, "trace_out", None)
    progress = getattr(args, "progress", False)
    metrics_port = getattr(args, "metrics_port", None)
    if not trace_out and not progress and metrics_port is None:
        return nullcontext(None)
    recorder = TraceRecorder(trace_out) if trace_out else TraceRecorder()
    if progress:
        from repro.obs.progress import ProgressReporter

        recorder.add_listener(ProgressReporter())
    return recorder


@contextmanager
def _telemetry(args, trace):
    """Attach a TelemetryHub + HTTP exporter to the run's recorder for
    the command body.

    Active only with ``--metrics-port`` (``_trace_recorder`` guarantees
    an in-memory recorder exists then, so the hub always has an event
    stream to subscribe to). Strictly read-side: the endpoint URL goes
    to stderr and job output is byte-identical hub on or off — the
    parity suite enforces it.
    """
    port = getattr(args, "metrics_port", None)
    if port is None or trace is None:
        yield None
        return
    from repro.obs.export import TelemetryExporter
    from repro.obs.hub import TelemetryHub

    with TelemetryHub() as hub:
        hub.attach(trace)
        exporter = TelemetryExporter(hub, port=port)
        try:
            exporter.start()
        except OSError as exc:
            # A taken port is an operator mistake, not a crash: one
            # line, exit 2, no traceback.
            print(
                f"error: cannot serve telemetry on port {port}: {exc}",
                file=sys.stderr,
            )
            raise SystemExit(2) from exc
        try:
            print(
                f"telemetry: http://127.0.0.1:{exporter.port}/metrics  "
                f"(live view: repro top --port {exporter.port})",
                file=sys.stderr,
            )
            yield hub
        finally:
            exporter.stop()


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of 'Extending Map-Reduce for Efficient "
            "Predicate-Based Sampling' (Grover & Carey, ICDE 2012)"
        ),
    )
    commands = parser.add_subparsers(dest="command", required=True)

    commands.add_parser("tables", help="print Tables I, II and III")

    fig4 = commands.add_parser("figure4", help="match-placement distribution")
    fig4.add_argument("--scale", type=float, default=5)
    fig4.add_argument("--seed", type=int, default=0)
    fig4.add_argument("--top", type=int, default=10)

    fig5 = commands.add_parser("figure5", help="single-user response times")
    fig5.add_argument("--scales", type=_int_list, default=PAPER_SCALES)
    fig5.add_argument("--skews", type=_int_list, default=(0, 1, 2))
    fig5.add_argument("--seeds", type=_int_list, default=(0, 1, 2))
    _add_parallel_args(fig5)

    fig6 = commands.add_parser("figure6", help="homogeneous multiuser throughput")
    fig6.add_argument("--skews", type=_int_list, default=(0, 2))
    fig6.add_argument("--seeds", type=_int_list, default=(0,))
    fig6.add_argument("--measurement", type=float, default=2400.0)
    _add_parallel_args(fig6)

    for name in ("figure7", "figure8"):
        fig = commands.add_parser(
            name,
            help=f"heterogeneous workload ({'FIFO' if name == 'figure7' else 'Fair'})",
        )
        fig.add_argument("--fractions", type=_float_list, default=PAPER_FRACTIONS)
        fig.add_argument("--seeds", type=_int_list, default=(0,))
        fig.add_argument("--measurement", type=float, default=3600.0)
        _add_parallel_args(fig)

    sweep = commands.add_parser(
        "sweep",
        help="regenerate a figure's grid in parallel with result caching",
    )
    sweep.add_argument("--figure", type=int, required=True, choices=(4, 5, 6, 7, 8))
    sweep.add_argument(
        "--jobs", type=int, default=None, metavar="N",
        help="worker processes (default: all cores)",
    )
    sweep.add_argument(
        "--no-cache", action="store_true",
        help="disable the result cache (enabled by default for sweeps)",
    )
    sweep.add_argument(
        "--cache-dir", default=None,
        help=(
            f"result cache directory (default: $REPRO_CACHE_DIR or "
            f"{DEFAULT_CACHE_DIR})"
        ),
    )
    sweep.add_argument("--scales", type=_int_list, default=PAPER_SCALES)
    sweep.add_argument(
        "--skews", type=_int_list, default=None,
        help="default: 0,1,2 for figure 5; 0,2 for figure 6",
    )
    sweep.add_argument("--seeds", type=_int_list, default=None)
    sweep.add_argument("--fractions", type=_float_list, default=PAPER_FRACTIONS)
    sweep.add_argument(
        "--measurement", type=float, default=None,
        help="default: 2400 s for figure 6, 3600 s for figures 7/8",
    )
    sweep.add_argument("--scale", type=float, default=5, help="figure 4 dataset scale")
    sweep.add_argument("--quiet", action="store_true", help="suppress per-cell progress")
    _add_trace_arg(sweep)

    sample = commands.add_parser("sample", help="run one sampling job")
    sample.add_argument("--scale", type=float, default=100)
    sample.add_argument("--skew", type=int, default=0, choices=(0, 1, 2))
    sample.add_argument("--policy", default="LA")
    sample.add_argument("--k", type=int, default=10_000)
    sample.add_argument("--seed", type=int, default=0)
    sample.add_argument(
        "--error", type=float, default=None, metavar="PCT",
        help=(
            "run an error-bounded COUNT instead of a k-sample: stop once "
            "the confidence interval's half-width is within PCT%% of the "
            "estimate (ignores --k)"
        ),
    )
    sample.add_argument(
        "--confidence", type=float, default=95.0, metavar="PCT",
        help="confidence level for --error (default: 95)",
    )
    _add_trace_arg(sample)

    query = commands.add_parser("query", help="execute SQL on a demo warehouse")
    query.add_argument("sql", help="e.g. \"SELECT * FROM lineitem WHERE l_quantity = 51 LIMIT 5\"")
    query.add_argument("--rows", type=int, default=20_000, help="demo table size")
    query.add_argument("--seed", type=int, default=0)
    query.add_argument("--max-print", type=int, default=10)
    query.add_argument(
        "--map-workers", type=int, default=None, metavar="N",
        help=(
            "run each batch's map tasks on N workers "
            "(default: $REPRO_MAP_WORKERS or 1, serial)"
        ),
    )
    query.add_argument(
        "--map-executor", default=None, choices=MAP_EXECUTORS,
        help=(
            "worker substrate for parallel map batches: 'thread' "
            "(in-process) or 'process' (mmap-layout datasets only; "
            "workers share page-cache pages). "
            "Default: $REPRO_MAP_EXECUTOR or thread"
        ),
    )
    query.add_argument(
        "--layout", default="row", choices=DATASET_LAYOUTS,
        help=(
            "storage layout for the demo table partitions; 'mmap' writes "
            "a binary columnar file and scans it via mmap"
        ),
    )
    query.add_argument(
        "--data", default=None, metavar="FILE",
        help=(
            "query an existing mmap dataset file (written by "
            "'repro dataset build') instead of generating the demo table; "
            "overrides --rows/--seed/--layout"
        ),
    )
    query.add_argument(
        "--stats-mode", default=None, choices=STATS_MODES,
        help=(
            "use split statistics for LIMIT queries: 'prune' skips "
            "provably-empty partitions (sample stays uniform), 'rank' "
            "additionally grabs the most promising partitions first, "
            "'stratified' prunes lazily without reordering the grab "
            "stream (default: off)"
        ),
    )
    query.add_argument(
        "--error", type=float, default=None, metavar="PCT",
        help=(
            "default error target for aggregate queries (sets the "
            "sampling.error.pct session parameter; a WITHIN clause in "
            "the statement wins)"
        ),
    )
    query.add_argument(
        "--confidence", type=float, default=None, metavar="PCT",
        help=(
            "default confidence level for aggregate queries (sets "
            "sampling.error.confidence; an AT ... CONFIDENCE clause wins)"
        ),
    )
    _add_trace_arg(query)

    dataset = commands.add_parser(
        "dataset",
        help="build and inspect on-disk mmap columnar datasets",
    )
    dataset_sub = dataset.add_subparsers(dest="dataset_command", required=True)

    dataset_build = dataset_sub.add_parser(
        "build",
        help=(
            "stream a LINEITEM dataset into a binary columnar file; "
            "memory stays bounded by one partition at any scale"
        ),
    )
    dataset_build.add_argument("--out", required=True, metavar="FILE")
    dataset_build.add_argument(
        "--rows", type=int, default=120_000,
        help="total rows (100M-row-scale builds are supported; default: 120000)",
    )
    dataset_build.add_argument(
        "--partitions", type=int, default=None, metavar="P",
        help="input partitions (default: the paper's 8-per-scale-unit rule)",
    )
    dataset_build.add_argument("--seed", type=int, default=0)
    dataset_build.add_argument(
        "--selectivity", type=float, default=0.01,
        help="controlled match fraction per marker predicate (default: 0.01)",
    )
    dataset_build.add_argument(
        "--stats", action=argparse.BooleanOptionalAction, default=True,
        help=(
            "embed per-partition split statistics (zone maps + bloom "
            "filters) in the file footer; --no-stats writes the "
            "stats-free version-1 format (default: --stats)"
        ),
    )
    dataset_build.add_argument(
        "--bloom-bits", type=int, default=None, metavar="BITS",
        help=(
            "bloom filter size in bits per low-cardinality column "
            "(multiple of 8; default: 2048)"
        ),
    )

    dataset_info = dataset_sub.add_parser(
        "info", help="print an mmap dataset file's schema and layout summary"
    )
    dataset_info.add_argument("path", metavar="FILE")

    trace = commands.add_parser(
        "trace", help="render a --trace-out file as a per-job timeline"
    )
    trace.add_argument("path", help="JSONL trace file written by --trace-out")
    trace.add_argument(
        "--job", default=None, metavar="JOB_ID",
        help="show only this job's events",
    )
    trace.add_argument(
        "--no-validate", action="store_true",
        help="skip schema validation while loading",
    )

    metrics = commands.add_parser(
        "metrics", help="render the metric snapshots from a --trace-out file"
    )
    metrics.add_argument("path", help="JSONL trace file written by --trace-out")
    metrics.add_argument(
        "--format", default="table", choices=("table", "prometheus"), dest="fmt",
        help=(
            "output format: human tables (default) or Prometheus text "
            "exposition (works on any existing trace: one exposition of "
            "every metrics_snapshot, labelled by scope and job)"
        ),
    )
    metrics.add_argument(
        "--no-validate", action="store_true",
        help="skip schema validation while loading",
    )

    top = commands.add_parser(
        "top",
        help=(
            "live terminal dashboard over a run started with "
            "--metrics-port (progress bars, rows/s, latency percentiles)"
        ),
    )
    top.add_argument(
        "--port", type=int, default=None, metavar="PORT",
        help="telemetry port of the running repro process",
    )
    top.add_argument("--host", default="127.0.0.1")
    top.add_argument(
        "--url", default=None, metavar="URL",
        help="full /telemetry.json URL (overrides --host/--port)",
    )
    top.add_argument(
        "--interval", type=float, default=1.0, metavar="SECONDS",
        help="refresh period (default: 1.0)",
    )
    top.add_argument(
        "--iterations", type=int, default=None, metavar="N",
        help="render N frames then exit (default: run until Ctrl-C)",
    )
    top.add_argument(
        "--no-clear", action="store_true",
        help="append frames instead of redrawing in place (for piping)",
    )

    audit = commands.add_parser(
        "audit",
        help=(
            "replay a --trace-out file against the paper's policy contract "
            "and task-accounting invariants (exit 1 on violation)"
        ),
    )
    audit.add_argument("path", help="JSONL trace file written by --trace-out")
    audit.add_argument(
        "--format", default="text", choices=("text", "json"), dest="fmt",
        help=(
            "output format (default: text); json emits stable-key-order "
            "findings for machine consumers"
        ),
    )
    audit.add_argument(
        "--no-validate", action="store_true",
        help="skip schema validation while loading",
    )

    doctor = commands.add_parser(
        "doctor",
        help=(
            "diagnose a recorded run: critical path, anomaly findings "
            "(stragglers, stalls, skew, drift, CI stalls), suggested "
            "knob changes (exit 1 when findings exist)"
        ),
    )
    doctor.add_argument("path", help="JSONL trace file written by --trace-out")
    doctor.add_argument(
        "--diff", default=None, metavar="TRACE",
        help="compare against a second trace (findings that appeared/"
        "resolved, per-job wall-time deltas) instead of gating",
    )
    doctor.add_argument(
        "--format", default="md", choices=("md", "json"), dest="fmt",
        help="report format (default: md); --diff renders md only",
    )
    doctor.add_argument(
        "--out", default=None, metavar="FILE",
        help="write the report here (a summary line still goes to stdout)",
    )
    doctor.add_argument(
        "--no-validate", action="store_true",
        help="skip schema validation while loading",
    )

    slo = commands.add_parser(
        "slo",
        help="declare run-quality objectives in JSON and gate CI on them",
    )
    slo_sub = slo.add_subparsers(dest="slo_command", required=True)
    slo_check = slo_sub.add_parser(
        "check",
        help=(
            "evaluate an SLO spec against traces "
            "(exit 1 when any objective is missed)"
        ),
    )
    slo_check.add_argument(
        "--spec", required=True, metavar="FILE",
        help="JSON SLO spec (see DESIGN.md §9e for the schema)",
    )
    slo_check.add_argument(
        "traces", nargs="*", metavar="TRACE",
        help="JSONL trace file(s) to hold against the spec",
    )
    slo_check.add_argument(
        "--format", default="text", choices=("text", "json"), dest="fmt",
        help="output format (default: text)",
    )
    slo_check.add_argument(
        "--no-validate", action="store_true",
        help="skip trace schema validation while loading",
    )

    report = commands.add_parser(
        "report",
        help="render one or more --trace-out files as a comparative report",
    )
    report.add_argument(
        "paths", nargs="+", metavar="PATH",
        help="JSONL trace file(s) written by --trace-out",
    )
    report.add_argument(
        "--format", default="md", choices=("md", "html"), dest="fmt",
        help="output format (default: md)",
    )
    report.add_argument(
        "--out", default=None, metavar="FILE",
        help="write the report here instead of stdout",
    )
    report.add_argument(
        "--diff", action="store_true",
        help="append a per-policy A/B/delta section (needs exactly 2 traces)",
    )
    report.add_argument(
        "--no-validate", action="store_true",
        help="skip schema validation while loading",
    )

    policies = commands.add_parser("policies", help="write policy.xml")
    policies.add_argument("--out", default="policy.xml")

    return parser


# ---------------------------------------------------------------------------
# Command handlers
# ---------------------------------------------------------------------------
def cmd_tables(_args, out) -> int:
    print(render_table(TABLE1_HEADERS, table1_rows(), title="Table I — Policies"), file=out)
    print(file=out)
    print(render_table(TABLE2_HEADERS, table2_rows(), title="Table II — Datasets"), file=out)
    print(file=out)
    print(render_table(TABLE3_HEADERS, table3_rows(), title="Table III — Predicates"), file=out)
    return 0


def cmd_figure4(args, out) -> int:
    series = figure4_series(
        scale=args.scale, seed=args.seed,
        jobs=getattr(args, "jobs", 1), cache=_cache_from(args),
        trace=getattr(args, "_trace", None),
    )
    rows = [
        [rank + 1] + [series[z].counts_by_rank[rank] for z in (0, 1, 2)]
        for rank in range(min(args.top, len(series[0].counts_by_rank)))
    ]
    print(
        render_table(
            ("Partition rank", "z=0", "z=1", "z=2"),
            rows,
            title=f"Figure 4 — matches per partition ({args.scale:g}x data)",
        ),
        file=out,
    )
    return 0


def _progress_printer(args, out):
    if getattr(args, "quiet", False):
        return None

    def progress(point, status):
        print(f"[{status:>6}] {point.describe()}", file=out)

    return progress if getattr(args, "_sweep_progress", False) else None


def cmd_figure5(args, out) -> int:
    cells = run_single_user_experiment(
        scales=args.scales, skews=args.skews, seeds=args.seeds,
        jobs=args.jobs, cache=_cache_from(args),
        progress=_progress_printer(args, out),
        trace=getattr(args, "_trace", None),
    )
    for z in args.skews:
        print(
            render_table(
                ("Scale",) + PAPER_POLICIES,
                response_time_rows(cells, z, scales=args.scales),
                title=f"Figure 5 — response time (s), z={z}",
            ),
            file=out,
        )
        print(file=out)
    if 1 in args.skews:
        print(
            render_table(
                ("Scale",) + PAPER_POLICIES,
                partitions_rows(cells, 1, scales=args.scales),
                title="Figure 5 (d) — partitions processed (moderate skew)",
            ),
            file=out,
        )
    return 0


def cmd_figure6(args, out) -> int:
    cells = run_homogeneous_experiment(
        skews=args.skews, seeds=args.seeds, measurement=args.measurement,
        jobs=args.jobs, cache=_cache_from(args),
        progress=_progress_printer(args, out),
        trace=getattr(args, "_trace", None),
    )
    for z in args.skews:
        print(
            render_table(
                FIGURE6_HEADERS,
                figure6_rows(cells, z),
                title=f"Figure 6 — homogeneous multiuser, z={z}",
            ),
            file=out,
        )
        print(file=out)
    return 0


def _cmd_heterogeneous(args, out, *, scheduler: str, figure: str) -> int:
    cells = run_heterogeneous_experiment(
        scheduler=scheduler,
        fractions=args.fractions,
        seeds=args.seeds,
        measurement=args.measurement,
        jobs=args.jobs,
        cache=_cache_from(args),
        progress=_progress_printer(args, out),
        trace=getattr(args, "_trace", None),
    )
    for user_class, label in (
        (UserClass.SAMPLING, "(a) Sampling"),
        (UserClass.NON_SAMPLING, "(b) Non-Sampling"),
    ):
        print(
            render_table(
                ("Sampling fraction",) + PAPER_POLICIES,
                class_throughput_rows(cells, user_class, fractions=args.fractions),
                title=f"{figure} {label} class throughput (jobs/h), {scheduler}",
            ),
            file=out,
        )
        print(file=out)
    stats = scheduler_stats(cells)
    print(
        f"locality {stats['locality_pct']:.1f}%  "
        f"slot occupancy {stats['slot_occupancy_pct']:.1f}%",
        file=out,
    )
    return 0


def cmd_sweep(args, out) -> int:
    """Regenerate one figure's grid, fanning cells out over worker processes.

    Delegates to the matching figure command after filling in per-figure
    defaults, with the result cache on (unless ``--no-cache``) and
    per-cell progress lines.
    """
    args.cache = not args.no_cache
    args._sweep_progress = True
    figure = args.figure
    if args.seeds is None:
        args.seeds = (0, 1, 2) if figure == 5 else (0,)
    if args.skews is None:
        args.skews = (0, 2) if figure == 6 else (0, 1, 2)
    if args.measurement is None:
        args.measurement = 2400.0 if figure == 6 else 3600.0
    with _trace_recorder(args) as trace, _telemetry(args, trace):
        args._trace = trace
        if figure == 4:
            args.seed = args.seeds[0]
            args.top = 10
            code = cmd_figure4(args, out)
        elif figure == 5:
            code = cmd_figure5(args, out)
        elif figure == 6:
            code = cmd_figure6(args, out)
        elif figure == 7:
            code = _cmd_heterogeneous(args, out, scheduler="fifo", figure="Figure 7")
        else:
            code = _cmd_heterogeneous(args, out, scheduler="fair", figure="Figure 8")
    return code


def cmd_sample(args, out) -> int:
    predicate = predicate_for_skew(args.skew)
    with _trace_recorder(args) as trace, _telemetry(args, trace):
        cluster = single_user_cluster(seed=args.seed, trace=trace)
        cluster.load_dataset("/d", dataset_for(args.scale, args.skew, args.seed))
        if args.error is not None:
            from repro.approx.estimators import AggregateSpec
            from repro.approx.job import make_approx_conf

            conf = make_approx_conf(
                name="cli-sample", input_path="/d", predicate=predicate,
                aggregate=AggregateSpec("count", None),
                error_pct=args.error, confidence_pct=args.confidence,
                policy_name=args.policy,
            )
        else:
            conf = make_sampling_conf(
                name="cli-sample", input_path="/d", predicate=predicate,
                sample_size=args.k, policy_name=args.policy,
            )
        result = cluster.run_job(conf)
    rows = [
        ["policy", args.policy],
        ["dataset", f"{args.scale:g}x (z={args.skew})"],
    ]
    if result.approx is not None:
        group = result.approx["groups"][0] if result.approx["groups"] else None
        estimate = group["estimate"] if group else None
        half = group["half_width"] if group else None
        rows += [
            ["aggregate", f"COUNT(*) WITHIN {args.error:g}% ERROR"],
            [
                "estimate",
                "-" if estimate is None else f"{estimate:,.0f}"
                + ("" if half is None else f" +/- {half:,.0f}"),
            ],
            ["confidence", f"{result.approx['confidence_pct']:g}%"],
            ["target met", "yes" if result.approx["target_met"] else "no"],
        ]
    else:
        rows.append(["sample size", result.outputs_produced])
    rows += [
        ["response time (s)", result.response_time],
        ["partitions processed", f"{result.splits_processed}/{result.splits_total}"],
        ["records scanned", f"{result.records_processed:,}"],
        ["input increments", result.input_increments],
        ["provider evaluations", result.evaluations],
    ]
    print(
        render_table(
            ("Metric", "Value"),
            rows,
            title="Sampling job result",
        ),
        file=out,
    )
    return 0


def cmd_query(args, out) -> int:
    import tempfile

    from repro.cluster import paper_topology
    from repro.data import LINEITEM_SCHEMA
    from repro.data.datasets import build_materialized_dataset, dataset_spec_for_scale
    from repro.dfs import DistributedFileSystem
    from repro.engine.runtime import LocalRunner
    from repro.hive import HiveSession

    scratch = None
    if args.data is not None:
        from repro.scan.mmapstore import load_mmap_dataset

        dataset = load_mmap_dataset(args.data)
    else:
        spec = dataset_spec_for_scale(args.rows / 6_000_000, num_partitions=16)
        predicates = {predicate_for_skew(z): float(z) for z in (0, 1, 2)}
        build_kwargs = {}
        if args.layout == "mmap":
            # The demo table is rebuilt per run; an unlinked scratch file
            # keeps the mapping alive for exactly this query's lifetime.
            scratch = tempfile.TemporaryDirectory(prefix="repro-query-")
            build_kwargs["mmap_path"] = str(Path(scratch.name) / "lineitem.rcs")
            if args.stats_mode not in (None, "off"):
                build_kwargs["stats"] = True
        dataset = build_materialized_dataset(
            spec, predicates, seed=args.seed, selectivity=0.01,
            layout=args.layout, **build_kwargs,
        )
    dfs = DistributedFileSystem(paper_topology().storage_locations())
    dfs.write_dataset("/warehouse/lineitem", dataset)
    try:
        with _trace_recorder(args) as trace, _telemetry(args, trace):
            with LocalRunner(
                seed=args.seed,
                map_workers=args.map_workers,
                map_executor=args.map_executor,
                trace=trace,
            ) as runner:
                session = HiveSession(runner=runner, dfs=dfs)
                session.register_table(
                    "lineitem", "/warehouse/lineitem", LINEITEM_SCHEMA
                )
                if args.stats_mode is not None:
                    session.set_param("sampling.stats.mode", args.stats_mode)
                if args.error is not None:
                    session.set_param("sampling.error.pct", str(args.error))
                if args.confidence is not None:
                    session.set_param(
                        "sampling.error.confidence", str(args.confidence)
                    )
                result = session.execute(args.sql)
    finally:
        if scratch is not None:
            scratch.cleanup()
    print(f"-- {result.statement}", file=out)
    for row in result.rows[: args.max_print]:
        print(row, file=out)
    remaining = result.num_rows - args.max_print
    if remaining > 0:
        print(f"... {remaining} more rows", file=out)
    if result.job is not None:
        pruned = getattr(result.job, "splits_pruned", 0)
        print(
            f"-- {result.num_rows} rows; scanned "
            f"{result.job.records_processed:,} records in "
            f"{result.job.splits_processed}/{result.job.splits_total} partitions"
            + (f" ({pruned} pruned via split statistics)" if pruned else ""),
            file=out,
        )
    return 0


def cmd_trace(args, out) -> int:
    events = load_trace(args.path, validate=not args.no_validate)
    if args.job is not None:
        known = sorted({e["job_id"] for e in events if e.get("job_id")})
        if args.job not in known:
            print(
                f"error: no job {args.job!r} in {args.path}; "
                f"trace contains: {', '.join(known) or '(none)'}",
                file=sys.stderr,
            )
            return 2
    print(render_timeline(events, job_id=args.job), file=out)
    return 0


def cmd_metrics(args, out) -> int:
    events = load_trace(args.path, validate=not args.no_validate)
    if getattr(args, "fmt", "table") == "prometheus":
        from repro.obs.export import render_trace_prometheus

        print(render_trace_prometheus(events), file=out, end="")
        return 0
    print(render_metrics(events), file=out)
    return 0


def cmd_top(args, out) -> int:
    from repro.obs.top import TopError, run_top

    if args.url is None and args.port is None:
        print("error: repro top needs --port (or --url)", file=sys.stderr)
        return 2
    url = args.url or f"http://{args.host}:{args.port}/telemetry.json"
    try:
        return run_top(
            url,
            interval=args.interval,
            iterations=args.iterations,
            out=out,
            clear=not args.no_clear,
        )
    except KeyboardInterrupt:
        return 0
    except TopError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def cmd_audit(args, out) -> int:
    from repro.obs.audit import audit_events, audit_json, render_audit

    events = load_trace(args.path, validate=not args.no_validate)
    audit = audit_events(events)
    if getattr(args, "fmt", "text") == "json":
        out.write(audit_json(audit))
    else:
        print(render_audit(audit), file=out)
    return 0 if audit.ok else 1


def cmd_doctor(args, out) -> int:
    from pathlib import Path

    from repro.obs.doctor import (
        diagnose,
        doctor_json,
        render_doctor,
        render_doctor_diff,
    )

    events = load_trace(args.path, validate=not args.no_validate)
    diagnosis = diagnose(events)
    if args.diff is not None:
        if args.fmt != "md":
            print("error: --diff renders markdown only", file=sys.stderr)
            return 2
        other = diagnose(load_trace(args.diff, validate=not args.no_validate))
        rendered = render_doctor_diff(
            diagnosis, other, names=(args.path, args.diff)
        )
    elif args.fmt == "json":
        rendered = doctor_json(diagnosis)
    else:
        rendered = render_doctor(diagnosis)
    if args.out:
        Path(args.out).write_text(rendered)
        print(f"wrote {args.out}", file=out)
    else:
        out.write(rendered)
    if args.diff is not None:
        return 0  # Diffing is exploratory, not a gate.
    if diagnosis.findings:
        print(
            f"doctor: {len(diagnosis.findings)} finding(s) in {args.path}",
            file=sys.stderr,
        )
        return 1
    return 0


def cmd_slo(args, out) -> int:
    from repro.obs.slo import (
        SloSpecError,
        evaluate_trace_slo,
        parse_slo_spec,
        render_slo,
        slo_json,
    )

    if not args.traces:
        print("error: repro slo check needs at least one TRACE", file=sys.stderr)
        return 2
    try:
        spec = parse_slo_spec(Path(args.spec).read_text())
    except OSError as exc:
        print(f"error: cannot read SLO spec: {exc}", file=sys.stderr)
        return 2
    except SloSpecError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    reports = []
    try:
        for path in args.traces:
            events = load_trace(path, validate=not args.no_validate)
            reports.append(evaluate_trace_slo(spec, events, source=path))
    except SloSpecError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.fmt == "json":
        out.write(slo_json(reports))
    else:
        out.write(render_slo(reports))
    return 0 if all(report.ok for report in reports) else 1


def cmd_report(args, out) -> int:
    from pathlib import Path

    from repro.obs.report import render_report

    traces = [
        (Path(path).name, load_trace(path, validate=not args.no_validate))
        for path in args.paths
    ]
    if args.diff and len(traces) != 2:
        print(
            f"error: --diff needs exactly 2 traces, got {len(traces)}",
            file=sys.stderr,
        )
        return 2
    text = render_report(traces, fmt=args.fmt, diff=args.diff)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text)
        print(f"wrote {args.out}", file=out)
    else:
        print(text, file=out, end="")
    return 0


def cmd_dataset_build(args, out) -> int:
    from repro.data.datasets import build_materialized_dataset, dataset_spec_for_scale

    spec = dataset_spec_for_scale(
        args.rows / 6_000_000,
        num_partitions=args.partitions,
    )
    predicates = {predicate_for_skew(z): float(z) for z in (0, 1, 2)}
    build_materialized_dataset(
        spec, predicates, seed=args.seed, selectivity=args.selectivity,
        layout="mmap", mmap_path=args.out,
        stats=args.stats, bloom_bits=args.bloom_bits,
    )
    size = Path(args.out).stat().st_size
    print(
        f"wrote {args.out}: {spec.num_rows:,} rows in {spec.num_partitions} "
        f"partitions, {size:,} bytes"
        f"{' (with split statistics)' if args.stats else ''}",
        file=out,
    )
    return 0


def cmd_dataset_info(args, out) -> int:
    from repro.scan.mmapstore import open_mmap_dataset

    reader = open_mmap_dataset(args.path)
    rows = [
        ["file bytes", f"{reader.file_size:,}"],
        ["eager bytes on open", f"{reader.eager_bytes:,}"],
        ["rows", f"{reader.num_rows:,}"],
        ["partitions", reader.num_partitions],
        ["columns", len(reader.names)],
    ]
    meta = reader.meta.get("repro")
    if meta:
        rows.append(["spec", meta["spec"]["name"]])
        rows.append(
            ["predicates", ", ".join(p["name"] for p in meta["predicates"])]
        )
    print(render_table(("Property", "Value"), rows, title=f"mmap dataset {args.path}"), file=out)
    type_names = {"i": "int64", "f": "float64", "b": "bool", "s": "string"}
    print(file=out)
    print(
        render_table(
            ("Column", "Type"),
            [[name, type_names[code]] for name, code in zip(reader.names, reader.types)],
            title="Schema",
        ),
        file=out,
    )
    print(file=out)
    if reader.stats is None:
        print(
            "split statistics: none (version "
            f"{reader.version} file; rebuild with --stats to embed zone "
            "maps and bloom filters)",
            file=out,
        )
        return 0

    def fmt(value) -> str:
        if isinstance(value, float):
            return f"{value:g}"
        return str(value)

    stat_rows = []
    for col_index, name in enumerate(reader.names):
        per_part = [
            reader.stats[p][col_index] for p in range(reader.num_partitions)
        ]
        mins = [s.min_value for s in per_part if s.has_minmax]
        maxs = [s.max_value for s in per_part if s.has_minmax]
        blooms = sum(1 for s in per_part if s.bloom is not None)
        nulls = sum(s.null_count for s in per_part)
        stat_rows.append(
            [
                name,
                fmt(min(mins)) if mins else "-",
                fmt(max(maxs)) if maxs else "-",
                f"{len(mins)}/{len(per_part)}",
                f"{blooms}/{len(per_part)}",
                f"{nulls:,}",
            ]
        )
    print(
        render_table(
            ("Column", "Min", "Max", "Zone maps", "Blooms", "Nulls"),
            stat_rows,
            title=(
                "Split statistics "
                f"(bloom: {reader.bloom_bits} bits x "
                f"{reader.bloom_hashes} hashes)"
            ),
        ),
        file=out,
    )
    if meta and meta.get("predicates"):
        from repro.data.predicates import MarkerEquals
        from repro.scan.prune import zone_test

        prune_rows = []
        for entry in meta["predicates"]:
            test = zone_test(MarkerEquals(entry["column"], entry["marker"]))
            prunable = sum(
                1
                for p in range(reader.num_partitions)
                if not test(reader.partition_stats(p))[0]
            )
            prune_rows.append(
                [entry["name"], f"{prunable}/{reader.num_partitions}"]
            )
        print(file=out)
        print(
            render_table(
                ("Predicate", "Prunable partitions"),
                prune_rows,
                title="Prune-ability of the controlled marker predicates",
            ),
            file=out,
        )
    return 0


def cmd_dataset(args, out) -> int:
    return {
        "build": cmd_dataset_build,
        "info": cmd_dataset_info,
    }[args.dataset_command](args, out)


def cmd_policies(args, out) -> int:
    dump_policies(paper_policies(), args.out)
    print(f"wrote {args.out}", file=out)
    return 0


def main(argv: list[str] | None = None, out=None) -> int:
    out = out or sys.stdout
    args = build_parser().parse_args(argv)
    handlers = {
        "tables": cmd_tables,
        "figure4": cmd_figure4,
        "figure5": cmd_figure5,
        "figure6": cmd_figure6,
        "figure7": lambda a, o: _cmd_heterogeneous(
            a, o, scheduler="fifo", figure="Figure 7"
        ),
        "figure8": lambda a, o: _cmd_heterogeneous(
            a, o, scheduler="fair", figure="Figure 8"
        ),
        "sweep": cmd_sweep,
        "sample": cmd_sample,
        "query": cmd_query,
        "dataset": cmd_dataset,
        "trace": cmd_trace,
        "metrics": cmd_metrics,
        "top": cmd_top,
        "audit": cmd_audit,
        "doctor": cmd_doctor,
        "slo": cmd_slo,
        "report": cmd_report,
        "policies": cmd_policies,
    }
    return handlers[args.command](args, out)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    raise SystemExit(main())
