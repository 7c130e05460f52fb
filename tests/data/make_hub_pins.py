"""Regenerate hub_pins.json: the telemetry hub's live state, event by event.

Run from the repo root:

    PYTHONPATH=src python tests/data/make_hub_pins.py [OUT]

``OUT`` defaults to ``tests/data/hub_pins.json``. The script replays
the golden trace, the dispatch trace and the slow trace (every anomaly
``make_slow_trace.py`` seeds) through a TelemetryHub on a fake clock,
one event at a time. After each event it reads the hub's snapshot and
keeps a row for what changed:

* ``[index, "alerts", [[job, detector, severity, message, since], ...]]``
  when the active alerts changed;
* ``[index, job_id, [splits_added, splits_completed, running_maps,
  rows_total]]`` when one job's counters changed.

An event that changed nothing adds no row, so the rows fix the state
after every event. ``tests/integration/test_hub_alert_pins.py`` replays
the same traces and compares. Regenerate only when the live fold is
meant to report something different, and say why in CHANGES.md.
"""

import importlib.util
import json
import sys
from pathlib import Path

from repro.obs.hub import TelemetryHub

DATA = Path(__file__).parent
OUT = DATA / "hub_pins.json"
TRACES = ("golden", "dispatch", "slow")
ALERT_FIELDS = ("job_id", "detector", "severity", "message", "since")
JOB_FIELDS = ("splits_added", "splits_completed", "running_maps", "rows_total")


def load_events(name: str) -> list[dict]:
    """The named trace's events; ``slow`` is built from the golden one."""
    source = DATA / ("golden_trace.jsonl" if name == "slow" else f"{name}_trace.jsonl")
    events = [json.loads(line) for line in source.read_text().splitlines() if line]
    if name == "slow":
        spec = importlib.util.spec_from_file_location(
            "make_slow_trace", DATA / "make_slow_trace.py"
        )
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        module.mutate(events, module.ANOMALIES)
    return events


class _Clock:
    """A wall clock that moves 1 ms per read: deterministic series."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        self.now += 0.001
        return self.now


def replay(events: list[dict]) -> list[list]:
    """Feed ``events`` to a fresh hub; the change rows described above."""
    hub = TelemetryHub(clock=_Clock())
    rows: list[list] = []
    alerts_before: list = []
    jobs_before: dict[str, list] = {}
    for index, event in enumerate(events):
        hub.on_event(event)
        snapshot = hub.snapshot()
        alerts = [[alert[f] for f in ALERT_FIELDS] for alert in snapshot["alerts"]]
        if alerts != alerts_before:
            rows.append([index, "alerts", alerts])
            alerts_before = alerts
        for job_id, job in snapshot["jobs"].items():
            counters = [job[f] for f in JOB_FIELDS]
            if counters != jobs_before.get(job_id):
                rows.append([index, job_id, counters])
                jobs_before[job_id] = counters
    return rows


def main() -> None:
    out = Path(sys.argv[1]) if len(sys.argv) > 1 else OUT
    blocks = []
    for name in TRACES:
        lines = ",\n".join("    " + json.dumps(row) for row in replay(load_events(name)))
        blocks.append(f'  "{name}": [\n{lines}\n  ]')
    out.write_text("{\n" + ",\n".join(blocks) + "\n}\n", encoding="utf-8")
    print(f"wrote {out}")


if __name__ == "__main__":
    main()
