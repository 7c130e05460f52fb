"""Continuous benchmarking: suites, history, and regression comparison.

Exposed as ``repro bench`` (whole-query latency lives in the standalone
``benchmarks/query`` harness):

* :mod:`repro.bench.suites` — a declarative registry of benchmark
  suites (kernel, scan modes, end-to-end policy run, sweep), each a
  function from a ``quick`` flag to a dict of metrics;
* :mod:`repro.bench.runner` — runs suites N times under a fresh
  :class:`~repro.obs.profile.PhaseProfiler` per repeat and aggregates
  median + MAD per metric with per-phase breakdowns;
* :mod:`repro.bench.history` — a machine-keyed JSONL history store
  (``benchmarks/history/<machine>.jsonl``) so the perf trajectory is a
  queryable series rather than loose ``BENCH_*.json`` files;
* :mod:`repro.bench.stats` — median/MAD helpers;
* :mod:`repro.bench.compare` — noise-aware regression detection between
  any two recorded runs (median shift vs a MAD-scaled threshold with a
  minimum-repeats guard), the CI perf gate.
"""

from repro.bench.compare import CompareReport, MetricDelta, compare_runs, render_compare
from repro.bench.history import (
    append_run,
    history_path,
    load_history,
    machine_info,
    machine_key,
)
from repro.bench.runner import run_suites
from repro.bench.stats import mad, median, summarize
from repro.bench.suites import SLOWDOWN_ENV, SUITES, Suite, injected_slowdown_s

__all__ = [
    "CompareReport",
    "MetricDelta",
    "compare_runs",
    "render_compare",
    "append_run",
    "history_path",
    "load_history",
    "machine_info",
    "machine_key",
    "run_suites",
    "mad",
    "median",
    "summarize",
    "SLOWDOWN_ENV",
    "SUITES",
    "Suite",
    "injected_slowdown_s",
]
