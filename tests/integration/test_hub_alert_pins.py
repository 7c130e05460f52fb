"""The telemetry hub's live alerts and per-job counters, event by event.

Each trace replays through a fresh TelemetryHub, one event at a time
(``tests/data/make_hub_pins.py``). After every event the active alerts
(job, detector, severity, message, since) and each job's
``splits_added``, ``splits_completed``, ``running_maps`` and
``rows_total`` must equal ``tests/data/hub_pins.json``.
"""

import importlib.util
import json
from pathlib import Path

import pytest

DATA = Path(__file__).parent.parent / "data"

_spec = importlib.util.spec_from_file_location("make_hub_pins", DATA / "make_hub_pins.py")
make_hub_pins = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(make_hub_pins)

PINS = json.loads((DATA / "hub_pins.json").read_text())


@pytest.mark.parametrize("name", make_hub_pins.TRACES)
def test_state_after_every_event_matches_the_pin(name):
    assert make_hub_pins.replay(make_hub_pins.load_events(name)) == PINS[name]


@pytest.mark.parametrize(
    "name, detectors",
    [
        ("golden", set()),
        ("dispatch", {"scheduler_stall"}),
        ("slow", {"scheduler_stall", "straggler"}),
    ],
)
def test_pinned_traces_raise_these_detectors(name, detectors):
    raised = {
        alert[1]
        for _index, kind, alerts in PINS[name]
        if kind == "alerts"
        for alert in alerts
    }
    assert raised == detectors
