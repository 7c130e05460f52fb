"""Event objects and handles for the discrete-event kernel.

Performance notes
-----------------
``ScheduledEvent`` is a plain ``__slots__`` class and the simulator's heap
holds ``(time, seq, event)`` tuples rather than the events themselves, so
``heapq`` orders entries with C-level tuple comparison instead of calling a
Python ``__lt__`` per comparison. ``seq`` is unique per simulator, so the
comparison never reaches the (non-comparable) event in the third slot.
"""

from __future__ import annotations

from typing import Any, Callable


class ScheduledEvent:
    """An event sitting in the simulator's priority queue.

    Ordering is by ``(time, seq)`` so that events scheduled for the same
    instant fire in the order they were scheduled (FIFO tie-break), which
    keeps runs deterministic. ``seq`` is per-:class:`Simulator` — two
    simulators in one process never share tie-break numbers, so a run's
    event sequence cannot depend on what ran before it.

    ``live`` tracks heap membership: True while the event is queued and
    not cancelled, False once it is popped for execution or cancelled.
    It lets the simulator keep an O(1) live-event count and guarantees a
    cancellation decrements that count exactly once.
    """

    __slots__ = ("time", "seq", "callback", "args", "cancelled", "live", "label")

    def __init__(
        self,
        time: float,
        seq: int,
        callback: Callable[..., Any],
        args: tuple = (),
        label: str = "",
    ) -> None:
        self.time = time
        self.seq = seq
        self.callback = callback
        self.args = args
        self.cancelled = False
        self.live = True
        self.label = label

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else ("live" if self.live else "done")
        return f"ScheduledEvent(t={self.time:.3f}, seq={self.seq}, {state})"


class EventHandle:
    """A cancellable reference to a scheduled event.

    Returned by :meth:`repro.sim.simulator.Simulator.schedule`. Cancelling
    is idempotent-safe via :meth:`cancel`; a cancelled event stays in the
    heap but is skipped when popped, and lets go of its callback and
    arguments at once, so an object that keeps a handle to an event
    calling back into itself is not left in a reference cycle.
    """

    __slots__ = ("_event", "_sim")

    def __init__(self, event: ScheduledEvent, sim=None) -> None:
        self._event = event
        self._sim = sim

    @property
    def time(self) -> float:
        """Simulated time at which the event will fire (or would have)."""
        return self._event.time

    @property
    def cancelled(self) -> bool:
        return self._event.cancelled

    @property
    def label(self) -> str:
        return self._event.label

    def cancel(self) -> bool:
        """Cancel the event. Returns True if it was live, False if already cancelled."""
        event = self._event
        if event.cancelled:
            return False
        event.cancelled = True
        event.callback = event.args = None
        if event.live:
            event.live = False
            if self._sim is not None:
                self._sim._on_cancel()
        return True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else "pending"
        return f"EventHandle(t={self.time:.3f}, {state}, label={self.label!r})"
