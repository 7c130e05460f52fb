"""Observability layer: metrics registry + structured trace export.

The paper's Input Provider (§III-A) decides END_OF_INPUT /
INPUT_AVAILABLE / NO_INPUT_AVAILABLE purely from job progress and
cluster load; this package makes every one of those decisions — and the
task lifecycle around them — inspectable after the fact.

Two halves:

* :mod:`repro.obs.metrics` — a picklable :class:`MetricsRegistry` of
  named counters, gauges, and histograms. Jobs, the cluster, and the
  benchmarks all hang their accounting off one of these instead of
  ad-hoc integer fields.
* :mod:`repro.obs.trace` — a :class:`TraceRecorder` emitting typed
  JSONL events (job lifecycle, task attempts, provider evaluations with
  their full inputs, scan-engine spans). It extends
  :class:`repro.engine.history.JobHistory` — same ``record()`` contract,
  so the JobTracker treats either interchangeably — rather than
  duplicating it.

On top of the stream sit pure read-side consumers:

* :mod:`repro.obs.analyze` — rebuilds a run model (span trees, waves,
  utilization series, per-policy Figure 5–8 summaries) from events;
* :mod:`repro.obs.audit` — replays every provider evaluation against
  the paper's Table I contract and the task-accounting invariants;
* :mod:`repro.obs.report` — deterministic markdown/HTML comparative
  reports, including a two-trace diff mode;
* :mod:`repro.obs.progress` — an opt-in live stderr reporter attached
  as a recorder listener;
* :mod:`repro.obs.hub` + :mod:`repro.obs.timeseries` — the live
  telemetry hub: windowed ring-buffer series and streaming quantile
  sketches maintained *while* jobs run, multiplexed across concurrent
  jobs, fed by trace events and cross-process worker deltas;
* :mod:`repro.obs.export` — Prometheus text exposition plus the
  background HTTP exporter (``--metrics-port``);
* :mod:`repro.obs.top` — the ``repro top`` live terminal dashboard;
* :mod:`repro.obs.spans` — the causal span graph: job → grant →
  attempt → reduce dependencies with retry linkage, the critical path
  that bounded job latency, and per-edge slack;
* :mod:`repro.obs.detect` — deterministic anomaly detectors over the
  span graph (stragglers, starvation, stalls, skew, drift, pruning
  regressions, CI stalls), each with a suggested knob change;
* :mod:`repro.obs.doctor` — ``repro doctor``: the byte-deterministic
  findings report with the critical path rendered, a two-trace diff,
  and the live :class:`Watchdog` behind the hub's alert gauges;
* :mod:`repro.obs.slo` — ``repro slo check``: JSON run-quality
  objectives evaluated against traces for CI gating.

Everything here is pure read-side: attaching a registry or recorder
consumes no randomness and changes no job output bytes.
"""

from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry

# trace/render are loaded lazily (PEP 562): obs.metrics must stay
# importable from low layers (cluster, engine) without dragging in
# obs.trace, whose JobHistory base lives above them in the import graph.
_LAZY = {
    "TRACE_SCHEMA_VERSION": "repro.obs.trace",
    "TraceRecorder": "repro.obs.trace",
    "TraceSchemaError": "repro.obs.trace",
    "load_trace": "repro.obs.trace",
    "validate_trace_event": "repro.obs.trace",
    "render_metrics": "repro.obs.render",
    "render_timeline": "repro.obs.render",
    "analyze_trace": "repro.obs.analyze",
    "policy_summaries": "repro.obs.analyze",
    "RunModel": "repro.obs.analyze",
    "JobModel": "repro.obs.analyze",
    "audit_events": "repro.obs.audit",
    "render_audit": "repro.obs.audit",
    "audit_json": "repro.obs.audit",
    "AuditReport": "repro.obs.audit",
    "Violation": "repro.obs.audit",
    "SpanGraph": "repro.obs.spans",
    "build_span_graph": "repro.obs.spans",
    "build_graphs": "repro.obs.spans",
    "Finding": "repro.obs.detect",
    "run_detectors": "repro.obs.detect",
    "Diagnosis": "repro.obs.doctor",
    "diagnose": "repro.obs.doctor",
    "render_doctor": "repro.obs.doctor",
    "doctor_json": "repro.obs.doctor",
    "render_doctor_diff": "repro.obs.doctor",
    "Watchdog": "repro.obs.doctor",
    "parse_slo_spec": "repro.obs.slo",
    "evaluate_trace_slo": "repro.obs.slo",
    "render_slo": "repro.obs.slo",
    "build_report": "repro.obs.report",
    "render_report": "repro.obs.report",
    "ProgressReporter": "repro.obs.progress",
    "TelemetryHub": "repro.obs.hub",
    "active_hub": "repro.obs.hub",
    "TimeSeries": "repro.obs.timeseries",
    "QuantileSketch": "repro.obs.timeseries",
    "TelemetryExporter": "repro.obs.export",
    "render_hub_prometheus": "repro.obs.export",
    "render_registry_prometheus": "repro.obs.export",
    "parse_exposition": "repro.obs.export",
    "render_top": "repro.obs.top",
}


def __getattr__(name: str):
    module_name = _LAZY.get(name)
    if module_name is None:
        raise AttributeError(f"module 'repro.obs' has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(module_name), name)


__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "TRACE_SCHEMA_VERSION",
    "TraceRecorder",
    "TraceSchemaError",
    "load_trace",
    "validate_trace_event",
    "render_metrics",
    "render_timeline",
    "analyze_trace",
    "policy_summaries",
    "RunModel",
    "JobModel",
    "audit_events",
    "render_audit",
    "audit_json",
    "AuditReport",
    "Violation",
    "SpanGraph",
    "build_span_graph",
    "build_graphs",
    "Finding",
    "run_detectors",
    "Diagnosis",
    "diagnose",
    "render_doctor",
    "doctor_json",
    "render_doctor_diff",
    "Watchdog",
    "parse_slo_spec",
    "evaluate_trace_slo",
    "render_slo",
    "build_report",
    "render_report",
    "ProgressReporter",
    "TelemetryHub",
    "active_hub",
    "TimeSeries",
    "QuantileSketch",
    "TelemetryExporter",
    "render_hub_prometheus",
    "render_registry_prometheus",
    "parse_exposition",
    "render_top",
]
