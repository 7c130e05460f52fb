"""Prometheus text exposition and the background HTTP exporter.

Two consumers need the hub's live state outside this process: humans
pointing ``curl``/Prometheus at a running sweep, and ``repro top``
running in another terminal. Both are served here:

* :func:`render_registry_prometheus` — any
  :meth:`~repro.obs.metrics.MetricsRegistry.snapshot` dict (live, or
  replayed from a trace's ``metrics_snapshot`` events) in the Prometheus
  text exposition format (version 0.0.4). Counters and gauges map
  directly; histograms render as summaries (``{quantile="0.5"}`` sample
  lines plus ``_count``/``_sum``), since log-bucket quantiles are what
  the sketch answers natively.
* :func:`render_hub_prometheus` — a :meth:`~repro.obs.hub.TelemetryHub.snapshot`
  as job-labelled series: rows/outputs/splits totals, running maps,
  grab-to-grant latency quantiles, CI half-widths, slot utilization,
  plus every tracked registry under a ``scope`` label.
* :class:`TelemetryExporter` — a daemon-thread HTTP server exposing
  ``GET /metrics`` (Prometheus text) and ``GET /telemetry.json`` (the
  raw hub snapshot, which is what ``repro top`` renders). Binds
  ``port=0`` for an ephemeral port in tests.

:func:`parse_exposition` is the matching strict-enough parser used by
the CI smoke test (and anyone scripting against the endpoint) to check
payloads round-trip.

Everything here is read-side presentation: nothing mutates the hub, and
none of it is imported by engine code.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from repro.errors import ReproError
from repro.obs.metrics import SNAPSHOT_QUANTILES

#: Exposition content type (Prometheus text format 0.0.4).
CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"


class ExpositionError(ReproError):
    """A payload failed to parse as Prometheus text exposition."""


def sanitize_metric_name(name: str) -> str:
    """A valid Prometheus metric name: ``[a-zA-Z_:][a-zA-Z0-9_:]*``.

    Registry names are free-form (``map_records_per_task``, or dotted
    like ``scan.rows``); dots, dashes, and anything else invalid become
    underscores.
    """
    out = []
    for index, ch in enumerate(name):
        if ch.isascii() and (ch.isalpha() or ch == "_" or ch == ":"):
            out.append(ch)
        elif ch.isascii() and ch.isdigit() and index > 0:
            out.append(ch)
        else:
            out.append("_")
    return "".join(out) or "_"


def _escape_label(value: str) -> str:
    return (
        str(value)
        .replace("\\", "\\\\")
        .replace("\n", "\\n")
        .replace('"', '\\"')
    )


def _labels(labels: dict | None) -> str:
    if not labels:
        return ""
    inner = ",".join(
        f'{sanitize_metric_name(key)}="{_escape_label(value)}"'
        for key, value in labels.items()
    )
    return "{" + inner + "}"


def _format_number(value) -> str:
    if value is None:
        return "NaN"
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    return repr(float(value))


class _Lines:
    """Accumulates exposition lines, emitting each # TYPE header once."""

    def __init__(self) -> None:
        self._lines: list[str] = []
        self._typed: set[str] = set()

    def type_header(self, name: str, kind: str, help_text: str | None = None) -> None:
        if name in self._typed:
            return
        self._typed.add(name)
        if help_text:
            self._lines.append(f"# HELP {name} {help_text}")
        self._lines.append(f"# TYPE {name} {kind}")

    def sample(self, name: str, labels: dict | None, value) -> None:
        self._lines.append(f"{name}{_labels(labels)} {_format_number(value)}")

    def text(self) -> str:
        return "\n".join(self._lines) + "\n" if self._lines else ""


def _render_histogram(
    lines: _Lines, name: str, stats: dict, labels: dict | None
) -> None:
    """A histogram snapshot dict as a Prometheus summary."""
    lines.type_header(name, "summary")
    for key, q in SNAPSHOT_QUANTILES:
        value = stats.get(key)
        if value is None:
            continue
        lines.sample(name, {**(labels or {}), "quantile": str(q)}, value)
    lines.sample(f"{name}_count", labels, stats.get("count", 0))
    lines.sample(f"{name}_sum", labels, stats.get("total", 0.0))


def render_registry_prometheus(
    snapshot: dict,
    *,
    prefix: str = "repro",
    labels: dict | None = None,
) -> str:
    """A ``MetricsRegistry.snapshot()`` dict as Prometheus text.

    ``snapshot`` has the registry shape ``{name: {"kind": ..., "value":
    ...}}``; histogram values are their stats dicts. Works identically
    on live registries and on ``metrics_snapshot`` trace events replayed
    from old runs (``repro metrics --format prometheus``).
    """
    lines = _Lines()
    _append_registry(lines, snapshot, prefix=prefix, labels=labels)
    return lines.text()


def _append_registry(
    lines: _Lines, snapshot: dict, *, prefix: str, labels: dict | None
) -> None:
    for name, entry in snapshot.items():
        kind = entry.get("kind")
        value = entry.get("value")
        metric = sanitize_metric_name(f"{prefix}_{name}" if prefix else name)
        if kind == "histogram":
            if isinstance(value, dict):
                _render_histogram(lines, metric, value, labels)
        elif kind == "counter":
            # Prometheus counters conventionally end in _total.
            if not metric.endswith("_total"):
                metric += "_total"
            lines.type_header(metric, "counter")
            lines.sample(metric, labels, value)
        else:
            lines.type_header(metric, "gauge")
            lines.sample(metric, labels, value)


def render_hub_prometheus(snapshot: dict, *, prefix: str = "repro") -> str:
    """A hub snapshot (:meth:`TelemetryHub.snapshot`) as Prometheus text."""
    lines = _Lines()
    slots = snapshot.get("slots") or {}
    if slots.get("utilization") is not None:
        name = f"{prefix}_cluster_slot_utilization"
        lines.type_header(name, "gauge", "Busy fraction of cluster map slots.")
        lines.sample(name, None, slots["utilization"])
    if slots.get("total") is not None:
        name = f"{prefix}_cluster_map_slots"
        lines.type_header(name, "gauge")
        lines.sample(name, {"state": "total"}, slots["total"])
        lines.sample(name, {"state": "available"}, slots.get("available") or 0)
    sweep = snapshot.get("sweep")
    if sweep:
        name = f"{prefix}_sweep_points"
        lines.type_header(name, "gauge", "Sweep progress by point state.")
        if sweep.get("points") is not None:
            lines.sample(name, {"state": "total"}, sweep["points"])
        lines.sample(name, {"state": "done"}, sweep.get("done", 0))
        lines.sample(name, {"state": "cached"}, sweep.get("cached", 0))

    # Watchdog alerts: the count gauge is emitted whenever the snapshot
    # carries the key (even at 0), so a scraper can tell "no alerts"
    # apart from "producer predates the watchdog"; one labelled gauge
    # per active alert carries the detail.
    alerts = snapshot.get("alerts")
    if alerts is not None:
        name = f"{prefix}_alerts_active"
        lines.type_header(name, "gauge", "Active watchdog alerts.")
        lines.sample(name, None, len(alerts))
        if alerts:
            name = f"{prefix}_alert"
            lines.type_header(
                name, "gauge", "One sample per active watchdog alert."
            )
            for alert in alerts:
                lines.sample(
                    name,
                    {
                        "job": alert.get("job_id") or "",
                        "detector": alert.get("detector") or "",
                        "severity": alert.get("severity") or "",
                    },
                    1,
                )

    for job_id, job in (snapshot.get("jobs") or {}).items():
        labels = {"job": job_id}
        for key, kind, help_text in (
            ("rows_total", "counter", "Rows scanned (live in-flight included)."),
            ("outputs_total", "counter", "Map outputs produced."),
            ("splits_added", "counter", None),
            ("splits_completed", "counter", None),
            ("evaluations", "counter", "Input Provider evaluations."),
        ):
            name = sanitize_metric_name(f"{prefix}_job_{key}")
            if kind == "counter" and not name.endswith("_total"):
                name += "_total"
            lines.type_header(name, kind, help_text)
            lines.sample(name, labels, job.get(key) or 0)
        name = f"{prefix}_job_running_maps"
        lines.type_header(name, "gauge")
        lines.sample(name, labels, job.get("running_maps") or 0)
        grab = job.get("grab_to_grant") or {}
        if grab.get("count"):
            _render_histogram(
                lines,
                f"{prefix}_job_grab_to_grant_seconds",
                {**grab, "total": grab.get("total", 0.0)},
                labels,
            )
        ci = job.get("ci")
        if isinstance(ci, dict) and ci.get("half_width") is not None:
            name = f"{prefix}_job_ci_half_width"
            lines.type_header(
                name, "gauge", "Confidence-interval half-width (accuracy jobs)."
            )
            lines.sample(name, labels, ci["half_width"])
        worker = job.get("worker") or {}
        if worker.get("deltas"):
            name = f"{prefix}_job_worker_deltas_total"
            lines.type_header(
                name, "counter", "Cross-process worker telemetry flushes received."
            )
            lines.sample(name, labels, worker["deltas"])

    for scope, registry in (snapshot.get("registries") or {}).items():
        _append_registry(
            lines, registry, prefix=prefix, labels={"scope": scope}
        )
    return lines.text()


def parse_exposition(text: str) -> dict[str, list[tuple[dict, float]]]:
    """Parse Prometheus text exposition into ``{metric: [(labels, value)]}``.

    Strict enough to catch real malformations (bad label syntax,
    non-numeric values, unknown line shapes) — the CI smoke test runs
    every scraped payload through this. Raises :class:`ExpositionError`.
    """
    samples: dict[str, list[tuple[dict, float]]] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        name, labels, rest = _parse_sample_head(line, lineno)
        parts = rest.split()
        if len(parts) not in (1, 2):  # value [timestamp]
            raise ExpositionError(f"line {lineno}: malformed sample {raw!r}")
        try:
            value = float(parts[0])
        except ValueError as exc:
            raise ExpositionError(
                f"line {lineno}: non-numeric value {parts[0]!r}"
            ) from exc
        samples.setdefault(name, []).append((labels, value))
    return samples


def _parse_sample_head(line: str, lineno: int) -> tuple[str, dict, str]:
    brace = line.find("{")
    space = line.find(" ")
    if brace != -1 and (space == -1 or brace < space):
        name = line[:brace]
        end = line.find("}", brace)
        if end == -1:
            raise ExpositionError(f"line {lineno}: unterminated label set")
        labels = _parse_labels(line[brace + 1 : end], lineno)
        rest = line[end + 1 :].strip()
    else:
        if space == -1:
            raise ExpositionError(f"line {lineno}: sample without value")
        name, rest = line[:space], line[space + 1 :].strip()
        labels = {}
    if not name or not (name[0].isalpha() or name[0] in "_:"):
        raise ExpositionError(f"line {lineno}: invalid metric name {name!r}")
    return name, labels, rest


def _parse_labels(body: str, lineno: int) -> dict:
    labels: dict[str, str] = {}
    body = body.strip()
    if not body:
        return labels
    for pair in _split_label_pairs(body, lineno):
        key, _, value = pair.partition("=")
        key = key.strip()
        value = value.strip()
        if not key or len(value) < 2 or value[0] != '"' or value[-1] != '"':
            raise ExpositionError(f"line {lineno}: malformed label {pair!r}")
        labels[key] = (
            value[1:-1]
            .replace('\\"', '"')
            .replace("\\n", "\n")
            .replace("\\\\", "\\")
        )
    return labels


def _split_label_pairs(body: str, lineno: int) -> list[str]:
    pairs, depth_quote, start = [], False, 0
    previous = ""
    for index, ch in enumerate(body):
        if ch == '"' and previous != "\\":
            depth_quote = not depth_quote
        elif ch == "," and not depth_quote:
            pairs.append(body[start:index])
            start = index + 1
        previous = ch
    if depth_quote:
        raise ExpositionError(f"line {lineno}: unterminated label value")
    tail = body[start:].strip()
    if tail:
        pairs.append(tail)
    return pairs


# ---------------------------------------------------------------------------
# Background HTTP exporter
# ---------------------------------------------------------------------------
class TelemetryExporter:
    """Serves a hub's snapshot over HTTP from a daemon thread.

    ``GET /metrics`` — Prometheus text exposition of the live snapshot.
    ``GET /telemetry.json`` — the raw snapshot as JSON (``repro top``'s
    wire format).

    The exporter holds only a reference to the hub and renders on each
    request, so scrapes always see current state; it never writes to the
    hub. ``port=0`` binds an ephemeral port (read :attr:`port` after
    :meth:`start`).
    """

    def __init__(self, hub, *, port: int = 0, host: str = "127.0.0.1") -> None:
        self._hub = hub
        self._requested_port = port
        self._host = host
        self._server: ThreadingHTTPServer | None = None
        self._thread: threading.Thread | None = None

    @property
    def port(self) -> int | None:
        """The bound port, once started."""
        return self._server.server_address[1] if self._server is not None else None

    def start(self) -> "TelemetryExporter":
        if self._server is not None:
            return self
        hub = self._hub

        class Handler(BaseHTTPRequestHandler):
            def do_GET(self) -> None:  # noqa: N802 (http.server API)
                path = self.path.split("?", 1)[0]
                if path == "/metrics":
                    body = render_hub_prometheus(hub.snapshot()).encode()
                    ctype = CONTENT_TYPE
                elif path == "/telemetry.json":
                    body = json.dumps(hub.snapshot()).encode()
                    ctype = "application/json"
                else:
                    self.send_error(404)
                    return
                self.send_response(200)
                self.send_header("Content-Type", ctype)
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def log_message(self, *args) -> None:  # silence per-request noise
                pass

        self._server = ThreadingHTTPServer(
            (self._host, self._requested_port), Handler
        )
        self._server.daemon_threads = True
        self._thread = threading.Thread(
            target=self._server.serve_forever,
            name="repro-metrics-exporter",
            daemon=True,
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        if self._server is not None:
            self._server.shutdown()
            self._server.server_close()
            self._server = None
        if self._thread is not None:
            self._thread.join(timeout=2.0)
            self._thread = None

    def __enter__(self) -> "TelemetryExporter":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()
