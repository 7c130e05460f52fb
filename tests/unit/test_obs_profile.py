"""Unit tests for the phase-scoped profiler (repro.obs.profile)."""

import pstats

import pytest

from repro.obs.metrics import MetricsRegistry
from repro.obs import profile
from repro.obs.profile import (
    KNOWN_PHASES,
    PHASE_KERNEL,
    PHASE_PREFIX,
    PHASE_SCAN,
    PhaseProfiler,
    collapsed_stacks,
    profiled_span,
    render_profile,
)


def _busy(n=20_000) -> int:
    return sum(range(n))


class TestSpans:
    def test_span_records_wall_and_cpu(self):
        prof = PhaseProfiler()
        with prof.span(PHASE_SCAN):
            _busy()
        snap = prof.registry.snapshot(prefix=PHASE_PREFIX)
        wall = snap[f"{PHASE_PREFIX}{PHASE_SCAN}.wall_s"]["value"]
        cpu = snap[f"{PHASE_PREFIX}{PHASE_SCAN}.cpu_s"]["value"]
        assert wall["count"] == 1 and cpu["count"] == 1
        assert wall["total"] > 0.0
        assert cpu["total"] >= 0.0

    def test_raising_span_counts_error_not_timing(self):
        prof = PhaseProfiler()
        with pytest.raises(ValueError):
            with prof.span(PHASE_SCAN):
                raise ValueError("boom")
        snap = prof.registry.snapshot(prefix=PHASE_PREFIX)
        assert snap[f"{PHASE_PREFIX}{PHASE_SCAN}.errors"]["value"] == 1
        assert f"{PHASE_PREFIX}{PHASE_SCAN}.wall_s" not in snap
        totals = prof.phase_totals()
        assert totals[PHASE_SCAN]["errors"] == 1
        assert totals[PHASE_SCAN]["calls"] == 0

    def test_spans_nest_and_both_record(self):
        prof = PhaseProfiler()
        with prof.span(PHASE_KERNEL):
            with prof.span(PHASE_SCAN):
                _busy()
        totals = prof.phase_totals()
        assert totals[PHASE_KERNEL]["calls"] == 1
        assert totals[PHASE_SCAN]["calls"] == 1
        # The scan clock reads sit inside the kernel span here.
        assert totals[PHASE_KERNEL]["wall_s"] >= totals[PHASE_SCAN]["wall_s"]

    def test_external_registry_is_used(self):
        registry = MetricsRegistry(scope="mine")
        prof = PhaseProfiler(registry=registry)
        with prof.span(PHASE_SCAN):
            pass
        assert f"{PHASE_PREFIX}{PHASE_SCAN}.wall_s" in registry

    def test_phase_totals_parses_dotted_phase_names(self):
        # Every canonical phase contains a dot; rpartition must split
        # metric suffix, not the phase.
        prof = PhaseProfiler()
        for phase in KNOWN_PHASES:
            with prof.span(phase):
                pass
        assert sorted(prof.phase_totals()) == sorted(KNOWN_PHASES)


class TestInstallation:
    def test_profiled_span_is_noop_without_active_profiler(self):
        assert profile.ACTIVE is None
        span = profiled_span(PHASE_SCAN)
        assert span is profile._NULL_SPAN
        with span:
            pass  # records nowhere, raises nothing

    def test_install_uninstall_restores_previous(self):
        outer = PhaseProfiler()
        inner = PhaseProfiler()
        outer.install()
        try:
            assert profile.ACTIVE is outer
            with inner:
                assert profile.ACTIVE is inner
                with profiled_span(PHASE_SCAN):
                    pass
            assert profile.ACTIVE is outer
        finally:
            outer.uninstall()
        assert profile.ACTIVE is None
        assert inner.phase_totals()[PHASE_SCAN]["calls"] == 1
        assert PHASE_SCAN not in outer.phase_totals()

    def test_installed_context_manager(self):
        prof = PhaseProfiler()
        with prof.installed() as active:
            assert active is prof
            assert profile.ACTIVE is prof
        assert profile.ACTIVE is None

    def test_double_install_is_idempotent(self):
        prof = PhaseProfiler()
        prof.install()
        prof.install()
        prof.uninstall()
        assert profile.ACTIVE is None
        prof.uninstall()  # second uninstall is a no-op


class TestCapture:
    def test_capture_dumps_pstats_and_collapsed(self, tmp_path):
        prof = PhaseProfiler(capture=True)
        with prof.span(PHASE_SCAN):
            _busy()
        assert sorted(prof._profiles) == [PHASE_SCAN]
        pstat_files = prof.dump_pstats(tmp_path)
        collapsed_files = prof.write_collapsed(tmp_path)
        assert [p.name for p in pstat_files] == [f"{PHASE_SCAN}.pstats"]
        assert [p.name for p in collapsed_files] == [f"{PHASE_SCAN}.collapsed"]
        stats = pstats.Stats(str(pstat_files[0]))
        assert stats.total_calls > 0  # type: ignore[attr-defined]
        lines = collapsed_files[0].read_text().splitlines()
        assert lines, "collapsed export is empty"
        for line in lines:
            stack, _, count = line.rpartition(" ")
            assert stack.startswith(PHASE_SCAN)
            assert int(count) > 0

    def test_nested_spans_capture_only_outermost(self):
        prof = PhaseProfiler(capture=True)
        with prof.span(PHASE_KERNEL):
            with prof.span(PHASE_SCAN):
                _busy()
        # cProfile cannot nest: the inner phase records timings but no
        # profile of its own; the outer capture covers it.
        assert sorted(prof._profiles) == [PHASE_KERNEL]
        assert prof.phase_totals()[PHASE_SCAN]["calls"] == 1

    def test_capture_off_produces_no_exports(self, tmp_path):
        prof = PhaseProfiler()
        with prof.span(PHASE_SCAN):
            _busy()
        assert not prof._profiles
        assert prof.dump_pstats(tmp_path) == []
        assert prof.write_collapsed(tmp_path) == []

    def test_collapsed_stacks_deterministic_order(self):
        prof = PhaseProfiler(capture=True)
        with prof.span(PHASE_SCAN):
            _busy()
        lines = collapsed_stacks(prof._profiles[PHASE_SCAN], PHASE_SCAN)
        assert lines == sorted(lines)


class TestRender:
    def test_render_empty(self):
        assert "no profiled phases" in render_profile(PhaseProfiler())

    def test_render_lists_phases_with_shares(self):
        prof = PhaseProfiler()
        with prof.span(PHASE_KERNEL):
            _busy()
        with pytest.raises(RuntimeError):
            with prof.span(PHASE_SCAN):
                raise RuntimeError("x")
        text = render_profile(prof)
        assert PHASE_KERNEL in text
        assert "% wall" in text
        assert "(1 errors)" in text


class TestReadSide:
    def test_profiler_registry_stays_picklable(self):
        import pickle

        prof = PhaseProfiler()
        with prof.span(PHASE_SCAN):
            pass
        clone = pickle.loads(pickle.dumps(prof.registry))
        assert clone.snapshot() == prof.registry.snapshot()
