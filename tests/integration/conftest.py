"""Fixtures shared by the integration suites."""

import pytest

from repro.engine import runtime


@pytest.fixture()
def chunk_rows(monkeypatch):
    """Sets the rows per worker telemetry chunk for one test."""

    def set_chunk_rows(rows: int) -> None:
        monkeypatch.setattr(runtime, "TELEMETRY_CHUNK_ROWS", rows)

    return set_chunk_rows
