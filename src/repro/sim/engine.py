"""The discrete-event engine driving every simulation.

The engine owns the clock and the event queue and dispatches events to
registered handlers.  It is deliberately tiny and generic: all
scheduling knowledge lives in the scheduler classes, which register one
handler per :class:`~repro.sim.events.EventKind`.
"""

from __future__ import annotations

from heapq import heappop
from typing import Any, Callable

from repro.sim.events import EventHandle, EventKind, EventQueue

__all__ = ["Engine", "SimulationError"]

Handler = Callable[[float, Any], None]


class SimulationError(RuntimeError):
    """An internal inconsistency detected while simulating."""


class Engine:
    def __init__(self) -> None:
        self._queue = EventQueue()
        self._handlers: dict[EventKind, Handler] = {}
        self._now = 0.0
        self._events_processed = 0
        self._running = False

    # -- clock & stats ---------------------------------------------------------
    @property
    def now(self) -> float:
        return self._now

    @property
    def events_processed(self) -> int:
        return self._events_processed

    @property
    def pending_events(self) -> int:
        return len(self._queue)

    # -- wiring ------------------------------------------------------------------
    def on(self, kind: EventKind, handler: Handler) -> None:
        """Register the handler for ``kind`` (exactly one per kind)."""
        if kind in self._handlers:
            raise ValueError(f"a handler for {kind.name} is already registered")
        self._handlers[kind] = handler

    def schedule(self, time: float, kind: EventKind, payload: Any = None) -> EventHandle:
        """Queue an event; scheduling into the past is a simulation bug."""
        if time < self._now - 1e-9:
            raise SimulationError(
                f"attempt to schedule a {kind.name} event at {time} "
                f"before the current time {self._now}"
            )
        return self._queue.push(max(time, self._now), kind, payload)

    def schedule_sorted(self, kind: EventKind, items: list[tuple[float, Any]]) -> None:
        """Bulk-schedule time-sorted ``(time, payload)`` pairs.

        Only valid on a fresh engine (empty queue); the schedulers use
        it to load a whole trace of arrivals without one heap sift per
        job.
        """
        if items and items[0][0] < self._now - 1e-9:
            raise SimulationError(
                f"attempt to schedule a {kind.name} event at {items[0][0]} "
                f"before the current time {self._now}"
            )
        try:
            self._queue.push_sorted(kind, items)
        except ValueError as exc:
            raise SimulationError(str(exc)) from None

    def cancel(self, handle: EventHandle) -> None:
        """Cancel a pending event.

        Raises :class:`SimulationError` when ``handle`` has already
        fired or was scheduled on a different engine — both indicate a
        scheduler bookkeeping bug that silent acceptance would turn
        into live-count corruption.
        """
        try:
            self._queue.cancel(handle)
        except ValueError as exc:
            raise SimulationError(str(exc)) from None

    def check_consistency(self) -> None:
        """Verify clock/queue invariants (sanitizer hook).

        The clock must never sit past the earliest pending event (events
        fire in time order, so a pending past-due event means the heap
        merge or a handler corrupted ordering), and the queue's own
        structure must hold.
        """
        from repro.analysis.sanitize import require

        queue = self._queue
        queue.check_consistency()
        if queue:
            require(
                queue.peek_time() >= self._now - 1e-9,
                f"pending event at {queue.peek_time()} precedes the "
                f"clock {self._now}",
            )

    # -- main loop -------------------------------------------------------------------
    def step(self) -> bool:
        """Process exactly one event; returns ``False`` on an empty queue.

        The single-step primitive behind
        :class:`~repro.session.SimulationSession`.  :meth:`run` keeps
        its own tight loop — run-to-completion throughput must not pay
        a per-event method call.
        """
        if self._running:
            raise SimulationError("engine is not reentrant")
        queue = self._queue
        if not queue:
            return False
        self._running = True
        try:
            event = queue.pop()
            time = event.time
            if time < self._now - 1e-9:
                raise SimulationError(f"time went backwards: {self._now} -> {time}")
            if time > self._now:
                self._now = time
            handler = self._handlers.get(event.kind)
            if handler is None:
                raise SimulationError(f"no handler registered for {event.kind.name}")
            handler(self._now, event.payload)
            self._events_processed += 1
        finally:
            self._running = False
        return True

    def run_for(self, n_events: int) -> int:
        """Process at most ``n_events`` events, one :meth:`step` each.

        Returns how many ran: fewer than asked only once the queue is
        empty.
        """
        processed = 0
        while processed < n_events and self.step():
            processed += 1
        return processed

    def run(self, until: float | None = None, max_events: int | None = None) -> None:
        """Process events until the queue drains (or a bound is hit).

        ``until`` stops the clock after the last event at or before that
        time; ``max_events`` guards against runaway simulations.
        """
        if self._running:
            raise SimulationError("engine is not reentrant")
        self._running = True
        # Local bindings keep the per-event overhead flat: this loop is
        # the outermost hot path of every simulation.  It reaches into
        # the EventQueue internals (heap + live count) so each event
        # pays one heappop and one dict lookup, not three method calls.
        queue = self._queue
        heap = queue._heap
        run = queue._run  # stable: push_sorted requires an empty queue
        handlers = self._handlers
        pop = heappop
        try:
            while queue._live:
                if until is not None and queue.peek_time() > until:
                    break
                if max_events is not None and self._events_processed >= max_events:
                    raise SimulationError(
                        f"exceeded the {max_events}-event budget at t={self._now}"
                    )
                index = queue._run_index
                if index < len(run):
                    entry = run[index]
                    assert entry is not None  # never consumed before _run_index
                    if heap and heap[0] < entry:
                        entry = pop(heap)
                    else:
                        run[index] = None  # free the entry as it is consumed
                        queue._run_index = index + 1
                elif heap:
                    entry = pop(heap)
                else:  # pragma: no cover - live count guards this
                    break
                handle = entry[3]
                if handle.cancelled:
                    continue
                handle.queue = None
                queue._live -= 1
                time = entry[0]
                if time > self._now:
                    self._now = time
                elif time < self._now - 1e-9:
                    raise SimulationError(
                        f"time went backwards: {self._now} -> {time}"
                    )
                handler = handlers.get(handle.kind)
                if handler is None:
                    raise SimulationError(f"no handler registered for {handle.kind.name}")
                handler(self._now, handle.payload)
                self._events_processed += 1
        finally:
            self._running = False
