"""Unit tests for the discrete-event kernel."""

import pytest

from repro.errors import SimulationError
from repro.sim import Simulator
from repro.sim.clock import SimClock
from repro.sim.simulator import PeriodicTask


class TestSimClock:
    def test_starts_at_zero(self):
        assert SimClock().now == 0.0

    def test_custom_start(self):
        assert SimClock(12.5).now == 12.5

    def test_negative_start_rejected(self):
        with pytest.raises(SimulationError):
            SimClock(-1.0)

    def test_advance_forward(self):
        clock = SimClock()
        clock.advance_to(3.0)
        assert clock.now == 3.0

    def test_advance_backwards_rejected(self):
        clock = SimClock(5.0)
        with pytest.raises(SimulationError):
            clock.advance_to(4.0)

    def test_advance_to_same_time_allowed(self):
        clock = SimClock(5.0)
        clock.advance_to(5.0)
        assert clock.now == 5.0


class TestScheduling:
    def test_event_fires_at_scheduled_time(self):
        sim = Simulator()
        seen = []
        sim.schedule(2.5, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [2.5]

    def test_events_fire_in_time_order(self):
        sim = Simulator()
        seen = []
        sim.schedule(3.0, lambda: seen.append("c"))
        sim.schedule(1.0, lambda: seen.append("a"))
        sim.schedule(2.0, lambda: seen.append("b"))
        sim.run()
        assert seen == ["a", "b", "c"]

    def test_same_time_events_fire_fifo(self):
        sim = Simulator()
        seen = []
        for label in "abcde":
            sim.schedule(1.0, seen.append, label)
        sim.run()
        assert seen == list("abcde")

    def test_args_passed_to_callback(self):
        sim = Simulator()
        seen = []
        sim.schedule(1.0, lambda a, b: seen.append((a, b)), 1, 2)
        sim.run()
        assert seen == [(1, 2)]

    def test_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.schedule(-0.1, lambda: None)

    def test_schedule_at_past_rejected(self):
        sim = Simulator()
        sim.schedule(5.0, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.schedule_at(1.0, lambda: None)

    def test_events_scheduled_during_run_execute(self):
        sim = Simulator()
        seen = []

        def first():
            seen.append("first")
            sim.schedule(1.0, lambda: seen.append("second"))

        sim.schedule(1.0, first)
        sim.run()
        assert seen == ["first", "second"]
        assert sim.now == 2.0

    def test_call_now_runs_at_current_time(self):
        sim = Simulator()
        times = []
        sim.schedule(4.0, lambda: sim.call_now(lambda: times.append(sim.now)))
        sim.run()
        assert times == [4.0]


class TestCancellation:
    def test_cancelled_event_does_not_fire(self):
        sim = Simulator()
        seen = []
        handle = sim.schedule(1.0, lambda: seen.append("x"))
        handle.cancel()
        sim.run()
        assert seen == []

    def test_cancel_returns_false_second_time(self):
        sim = Simulator()
        handle = sim.schedule(1.0, lambda: None)
        assert handle.cancel() is True
        assert handle.cancel() is False

    def test_pending_events_excludes_cancelled(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        handle = sim.schedule(2.0, lambda: None)
        handle.cancel()
        assert sim.pending_events == 1


class TestRunControl:
    def test_run_until_stops_before_later_events(self):
        sim = Simulator()
        seen = []
        sim.schedule(1.0, lambda: seen.append(1))
        sim.schedule(10.0, lambda: seen.append(10))
        sim.run(until=5.0)
        assert seen == [1]
        assert sim.now == 5.0

    def test_run_until_no_advance_clock(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        sim.run(until=5.0, advance_clock=False)
        assert sim.now == 1.0

    def test_run_resumes_after_until(self):
        sim = Simulator()
        seen = []
        sim.schedule(10.0, lambda: seen.append(10))
        sim.run(until=5.0)
        sim.run()
        assert seen == [10]

    def test_stop_ends_run_immediately(self):
        sim = Simulator()
        seen = []
        sim.schedule(1.0, lambda: (seen.append(1), sim.stop()))
        sim.schedule(2.0, lambda: seen.append(2))
        sim.run()
        assert seen == [1]
        # A subsequent run picks the remaining event up.
        sim.run()
        assert seen == [1, 2]

    def test_step_executes_single_event(self):
        sim = Simulator()
        seen = []
        sim.schedule(1.0, lambda: seen.append(1))
        sim.schedule(2.0, lambda: seen.append(2))
        assert sim.step() is True
        assert seen == [1]
        assert sim.step() is True
        assert sim.step() is False

    def test_peek_time(self):
        sim = Simulator()
        assert sim.peek_time() is None
        handle = sim.schedule(3.0, lambda: None)
        assert sim.peek_time() == 3.0
        handle.cancel()
        assert sim.peek_time() is None

    def test_events_processed_counter(self):
        sim = Simulator()
        for i in range(3):
            sim.schedule(float(i), lambda: None)
        sim.run()
        assert sim.events_processed == 3

    def test_run_until_before_now_rejected(self):
        sim = Simulator()
        sim.schedule(5.0, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.run(until=1.0)


class TestSequenceIsolation:
    """The tie-break counter is per-simulator (regression: it used to be a
    module global, so a run's event seqs depended on what ran before it)."""

    def test_fresh_simulator_starts_at_seq_zero(self):
        first = Simulator()
        first.schedule(1.0, lambda: None)
        first.schedule(1.0, lambda: None)
        second = Simulator()
        handle = second.schedule(1.0, lambda: None)
        assert handle._event.seq == 0

    def test_two_simulators_assign_identical_sequences(self):
        def build():
            sim = Simulator()
            handles = [sim.schedule(float(i % 3), lambda: None) for i in range(10)]
            return sim, [h._event.seq for h in handles]

        sim_a, seqs_a = build()
        sim_b, seqs_b = build()
        assert seqs_a == seqs_b

    def test_back_to_back_runs_are_identical(self):
        """Same schedule replayed on a fresh simulator fires identically."""

        def run_once():
            sim = Simulator()
            fired = []
            for i in range(20):
                sim.schedule(float(i % 4), fired.append, i)
            sim.run()
            return fired, sim.events_processed

        first = run_once()
        second = run_once()
        assert first == second


class TestLiveEventCounter:
    """pending_events is an O(1) counter updated on schedule/cancel/pop."""

    def test_counts_schedule_and_pop(self):
        sim = Simulator()
        for i in range(5):
            sim.schedule(float(i), lambda: None)
        assert sim.pending_events == 5
        sim.step()
        assert sim.pending_events == 4
        sim.run()
        assert sim.pending_events == 0

    def test_cancel_decrements_exactly_once(self):
        sim = Simulator()
        handle = sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        assert handle.cancel() is True
        assert sim.pending_events == 1
        assert handle.cancel() is False
        assert sim.pending_events == 1
        # Popping the cancelled entry must not decrement again.
        sim.run()
        assert sim.pending_events == 0

    def test_cancel_after_fire_does_not_underflow(self):
        sim = Simulator()
        handle = sim.schedule(1.0, lambda: None)
        sim.run()
        assert sim.pending_events == 0
        handle.cancel()
        assert sim.pending_events == 0

    def test_cancel_from_within_own_callback(self):
        sim = Simulator()
        handles = []

        def fire():
            handles[0].cancel()

        handles.append(sim.schedule(1.0, fire))
        sim.run()
        assert sim.pending_events == 0

    def test_periodic_task_keeps_counter_balanced(self):
        sim = Simulator()
        task = PeriodicTask(sim, 1.0, lambda: None)
        sim.run(until=5.5)
        assert sim.pending_events == 1  # the re-armed next fire
        task.cancel()
        assert sim.pending_events == 0

    def test_cancel_pending_empties_the_queue(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, fired.append, "once")
        PeriodicTask(sim, 1.0, lambda: fired.append("tick"))
        sim.cancel_pending()
        assert sim.pending_events == 0
        sim.run()
        assert fired == []

    def test_counter_matches_heap_scan(self):
        sim = Simulator()
        handles = [sim.schedule(float(i % 7), lambda: None) for i in range(50)]
        for handle in handles[::3]:
            handle.cancel()
        live_scan = sum(1 for _, _, e in sim._heap if not e.cancelled)
        assert sim.pending_events == live_scan
        sim.run(until=3.0)
        live_scan = sum(1 for _, _, e in sim._heap if not e.cancelled)
        assert sim.pending_events == live_scan


class TestPeriodicTask:
    def test_fires_on_period(self):
        sim = Simulator()
        times = []
        task = PeriodicTask(sim, 2.0, lambda: times.append(sim.now))
        sim.run(until=7.0)
        task.cancel()
        assert times == [2.0, 4.0, 6.0]

    def test_start_delay_overrides_first_fire(self):
        sim = Simulator()
        times = []
        PeriodicTask(sim, 5.0, lambda: times.append(sim.now), start_delay=1.0)
        sim.run(until=7.0)
        assert times == [1.0, 6.0]

    def test_cancel_stops_future_fires(self):
        sim = Simulator()
        times = []
        task = PeriodicTask(sim, 1.0, lambda: times.append(sim.now))
        sim.schedule(2.5, task.cancel)
        sim.run(until=10.0)
        assert times == [1.0, 2.0]

    def test_callback_can_cancel_itself(self):
        sim = Simulator()
        times = []
        task = None

        def fire():
            times.append(sim.now)
            if len(times) == 2:
                task.cancel()

        task = PeriodicTask(sim, 1.0, fire)
        sim.run(until=10.0)
        assert times == [1.0, 2.0]

    def test_non_positive_period_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            PeriodicTask(sim, 0.0, lambda: None)
