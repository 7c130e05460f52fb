"""The discrete-event simulator.

A minimal, deterministic, callback-style event loop. Components schedule
callbacks at future simulated instants; :meth:`Simulator.run` pops events in
``(time, insertion order)`` order, advances the clock, and invokes them.

The kernel is intentionally callback-based rather than coroutine-based:
the Hadoop components built on top (JobTracker, TaskTrackers, JobClients)
are naturally event-driven state machines, and callbacks keep stack traces
shallow and runs reproducible.

Hot-path design (the whole evaluation pipeline is bottlenecked on this
loop):

* heap entries are ``(time, seq, event)`` tuples, ordered by C-level tuple
  comparison — no Python ``__lt__`` call per heap comparison;
* the tie-break ``seq`` counter is per-simulator, so event ordering (and
  therefore results) cannot depend on other simulators in the process;
* a live-event counter is maintained on schedule/cancel/pop, making
  :attr:`Simulator.pending_events` O(1) instead of an O(n) heap scan;
* :class:`PeriodicTask` re-arms by recycling its one event object through
  :meth:`Simulator._reschedule` instead of allocating a fresh
  ``ScheduledEvent`` + ``EventHandle`` per fire;
* the cluster components the loop calls back into do O(1) work per map
  task: nodes and pending-task queues keep integer counts instead of
  recounting, a dispatch pass orders its jobs once and drops a job only
  when its queue empties, and per-task trace fields are built only when
  a recorder is attached (DESIGN.md §7).
"""

from __future__ import annotations

import heapq
from typing import Any, Callable

from repro.errors import SimulationError
from repro.sim.clock import SimClock
from repro.sim.events import EventHandle, ScheduledEvent


class Simulator:
    """Deterministic discrete-event loop with a simulated clock.

    Typical usage::

        sim = Simulator()
        sim.schedule(5.0, lambda: print("fires at t=5"))
        sim.run()
    """

    def __init__(self, start_time: float = 0.0) -> None:
        self._clock = SimClock(start_time)
        self._heap: list[tuple[float, int, ScheduledEvent]] = []
        self._seq = 0
        self._live = 0
        self._running = False
        self._stopped = False
        self._events_processed = 0

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._clock._now

    @property
    def clock(self) -> SimClock:
        return self._clock

    @property
    def events_processed(self) -> int:
        """Number of events executed so far (cancelled events excluded)."""
        return self._events_processed

    @property
    def pending_events(self) -> int:
        """Number of live (non-cancelled) events still queued. O(1)."""
        return self._live

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule(
        self,
        delay: float,
        callback: Callable[..., Any],
        *args: Any,
        label: str = "",
    ) -> EventHandle:
        """Schedule ``callback(*args)`` to run ``delay`` seconds from now."""
        if delay < 0:
            raise SimulationError(f"cannot schedule event {delay}s in the past")
        time = self._clock._now + delay
        seq = self._seq
        self._seq = seq + 1
        event = ScheduledEvent(time, seq, callback, args, label)
        heapq.heappush(self._heap, (time, seq, event))
        self._live += 1
        return EventHandle(event, self)

    def schedule_at(
        self,
        time: float,
        callback: Callable[..., Any],
        *args: Any,
        label: str = "",
    ) -> EventHandle:
        """Schedule ``callback(*args)`` at absolute simulated time ``time``."""
        if time < self._clock._now:
            raise SimulationError(
                f"cannot schedule event at t={time} before now={self.now}"
            )
        seq = self._seq
        self._seq = seq + 1
        event = ScheduledEvent(float(time), seq, callback, args, label)
        heapq.heappush(self._heap, (event.time, seq, event))
        self._live += 1
        return EventHandle(event, self)

    def call_now(self, callback: Callable[..., Any], *args: Any, label: str = "") -> EventHandle:
        """Schedule ``callback`` at the current instant (after pending same-time events)."""
        return self.schedule(0.0, callback, *args, label=label)

    def _reschedule(self, event: ScheduledEvent, delay: float) -> None:
        """Re-arm an already-fired event ``delay`` seconds from now.

        Internal fast path for :class:`PeriodicTask`: recycles the event
        object (and thereby its handle) instead of allocating new ones.
        The event must have been popped already (``live`` False) and not
        cancelled.
        """
        if event.cancelled or event.live:
            raise SimulationError("can only reschedule a fired, uncancelled event")
        event.time = self._clock._now + delay
        seq = self._seq
        self._seq = seq + 1
        event.seq = seq
        event.live = True
        heapq.heappush(self._heap, (event.time, seq, event))
        self._live += 1

    def _on_cancel(self) -> None:
        """A queued live event was cancelled (called by EventHandle.cancel)."""
        self._live -= 1

    # ------------------------------------------------------------------
    # Running
    # ------------------------------------------------------------------
    def run(
        self,
        until: float | None = None,
        *,
        advance_clock: bool = True,
    ) -> float:
        """Process events until the queue drains or ``until`` is reached
        (:meth:`step` runs one event at a time).

        Returns the simulated time at which the loop stopped. When ``until``
        is given, the queue drains earlier, and ``advance_clock`` is true
        (the default), the clock is advanced to ``until`` so repeated
        ``run(until=...)`` calls compose predictably; pass
        ``advance_clock=False`` to leave the clock at the last event.
        """
        if self._running:
            raise SimulationError("simulator is already running (re-entrant run())")
        if until is not None and until < self.now:
            raise SimulationError(f"cannot run until t={until}, already at t={self.now}")
        self._running = True
        self._stopped = False
        heap = self._heap
        clock = self._clock
        heappop = heapq.heappop
        processed = self._events_processed
        try:
            while heap:
                if self._stopped:
                    break
                entry = heap[0]
                event = entry[2]
                if event.cancelled:
                    heappop(heap)
                    continue
                if until is not None and entry[0] > until:
                    break
                heappop(heap)
                event.live = False
                self._live -= 1
                # Heap order guarantees monotone times, so skip the
                # backwards-motion check in SimClock.advance_to here.
                clock._now = entry[0]
                processed += 1
                self._events_processed = processed
                event.callback(*event.args)
            if (
                until is not None
                and advance_clock
                and not self._stopped
                and clock._now < until
            ):
                clock.advance_to(until)
        finally:
            self._running = False
        return clock._now

    def step(self) -> bool:
        """Execute exactly one live event. Returns False when none remain."""
        while self._heap:
            _time, _seq, event = heapq.heappop(self._heap)
            if event.cancelled:
                continue
            event.live = False
            self._live -= 1
            self._clock.advance_to(event.time)
            self._events_processed += 1
            event.callback(*event.args)
            return True
        return False

    def stop(self) -> None:
        """Request the current :meth:`run` call to return after the active event."""
        self._stopped = True

    def cancel_pending(self) -> None:
        """Cancel every queued event, releasing its callback and arguments.

        For a simulator being discarded: its queued events (a coalesced
        dispatch, a periodic poller) call back into the components that
        hold the simulator, and would otherwise keep them in reference
        cycles.
        """
        for _time, _seq, event in self._heap:
            event.cancelled = True
            event.live = False
            event.callback = event.args = None
        self._heap.clear()
        self._live = 0

    def peek_time(self) -> float | None:
        """Time of the next live event, or None if the queue is empty."""
        heap = self._heap
        while heap and heap[0][2].cancelled:
            heapq.heappop(heap)
        if not heap:
            return None
        return heap[0][0]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Simulator(now={self.now:.3f}, pending={self.pending_events}, "
            f"processed={self._events_processed})"
        )


class PeriodicTask:
    """Re-schedules a callback at a fixed period until cancelled.

    Used for pollers such as the dynamic-job evaluation loop and the
    cluster metrics monitor. The callback may call :meth:`cancel` from
    within itself to stop the loop.

    The task owns a single :class:`ScheduledEvent` that is recycled
    through :meth:`Simulator._reschedule` on every fire, so a poller that
    ticks thousands of times allocates its event machinery once. The
    callback rides in the event's arguments, which cancelling releases,
    so a cancelled task holds nothing of its owner's.
    """

    def __init__(
        self,
        sim: Simulator,
        period: float,
        callback: Callable[[], Any],
        *,
        start_delay: float | None = None,
        label: str = "",
    ) -> None:
        if period <= 0:
            raise SimulationError(f"periodic task period must be positive, got {period}")
        self._sim = sim
        self._period = period
        self._label = label
        self._cancelled = False
        first = period if start_delay is None else start_delay
        self._handle = sim.schedule(first, self._fire, callback, label=label)
        self._event = self._handle._event

    @property
    def cancelled(self) -> bool:
        return self._cancelled

    def cancel(self) -> None:
        self._cancelled = True
        self._handle.cancel()

    def _fire(self, callback: Callable[[], Any]) -> None:
        if self._cancelled:
            return
        callback()
        if not self._cancelled:
            self._sim._reschedule(self._event, self._period)
