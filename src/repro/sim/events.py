"""Event types, the cancellable priority event queue, and the typed
lifecycle stream.

Two event vocabularies live here:

* :class:`EventKind`/:class:`EventQueue` — the *engine-internal* queue
  driving the simulation forward (completions before arrivals at equal
  timestamps; ties beyond ``(time, kind)`` break by insertion order,
  keeping runs deterministic).
* The :class:`LifecycleEvent` hierarchy — the *observer-facing* typed
  stream a :class:`~repro.scheduling.base.Scheduler` emits to attached
  instruments (:mod:`repro.instruments`).  Lifecycle events are frozen
  dataclasses carrying plain scalars only, so an observer can hold,
  hash or serialise them but can never reach back into engine state.
  :func:`event_row` is their one JSON row encoding, shared by the
  recorded trace and the serve daemon's telemetry stream.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from enum import IntEnum
from heapq import heappop, heappush
from typing import Any

__all__ = [
    "EventKind",
    "EventHandle",
    "EventQueue",
    "LifecycleEvent",
    "JobSubmitted",
    "JobStarted",
    "JobFinished",
    "GearSelected",
    "QueueDepthChanged",
    "ClockTick",
    "NodesSlept",
    "NodesWoke",
    "event_row",
]


class EventKind(IntEnum):
    """Event categories; smaller values win ties at equal times."""

    JOB_FINISH = 0
    JOB_ARRIVAL = 1
    CONTROL = 2


class EventHandle:
    """A scheduled event; keep it to :meth:`EventQueue.cancel` it later.

    A plain ``__slots__`` class rather than a dataclass: handles are
    created and touched once per event on the simulation hot path, and
    the ``seq`` tiebreaker in the heap tuples guarantees handles
    themselves are never compared.  ``queue`` tracks ownership: it is
    the queue the event is currently pending on, and ``None`` once the
    event has fired or been cancelled — :meth:`EventQueue.cancel` uses
    it to reject stale and foreign handles instead of silently
    corrupting the live-event count.
    """

    __slots__ = ("time", "kind", "payload", "seq", "cancelled", "queue")

    def __init__(
        self, time: float, kind: EventKind, payload: Any = None, seq: int = 0
    ) -> None:
        self.time = time
        self.kind = kind
        self.payload = payload
        self.seq = seq
        self.cancelled = False
        self.queue: "EventQueue | None" = None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        flag = ", cancelled" if self.cancelled else ""
        return f"EventHandle(time={self.time}, kind={self.kind.name}, seq={self.seq}{flag})"


class EventQueue:
    """Min-heap of events with O(1) lazy cancellation.

    A time-sorted bulk load (:meth:`push_sorted` — the scheduler's whole
    trace of arrivals) is kept as a separate sorted *run* consumed by
    index, so those events never pay the heap's push/pop sifts; ``pop``
    merges the run head with the heap head.  Entries are ``(time, kind,
    seq, handle)`` tuples in both structures, so the merge comparison is
    the exact tie-break order the heap alone would produce.
    """

    def __init__(self) -> None:
        self._heap: list[tuple[float, int, int, EventHandle]] = []
        # Consumed run entries are overwritten with None so their
        # handles/payloads free as the simulation advances.
        self._run: list[tuple[float, int, int, EventHandle] | None] = []
        self._run_index = 0
        self._seq = 0
        self._live = 0

    def __len__(self) -> int:
        return self._live

    def __bool__(self) -> bool:
        return self._live > 0

    def push(self, time: float, kind: EventKind, payload: Any = None) -> EventHandle:
        if time != time:  # NaN guard
            raise ValueError("event time is NaN")
        seq = self._seq
        handle = EventHandle(time, kind, payload, seq)
        handle.queue = self
        heappush(self._heap, (time, kind._value_, seq, handle))
        self._seq = seq + 1
        self._live += 1
        return handle

    def push_sorted(self, kind: EventKind, items: list[tuple[float, Any]]) -> None:
        """Bulk-load ``(time, payload)`` pairs sorted by time into an empty queue.

        The entries form the queue's sorted run: consumed by index and
        merged against the heap on ``pop``, so these events never pay a
        heap sift — this is how a scheduler loads a whole trace of
        arrivals in one go.
        """
        if self._heap or self._run_index < len(self._run):
            raise ValueError("push_sorted requires an empty event queue")
        run = self._run = []
        self._run_index = 0
        seq = self._seq
        kind_value = kind._value_
        previous = float("-inf")
        for time, payload in items:
            if not time >= previous:  # also catches NaN
                raise ValueError(
                    f"push_sorted items not sorted by time ({time} after {previous})"
                )
            previous = time
            handle = EventHandle(time, kind, payload, seq)
            handle.queue = self
            run.append((time, kind_value, seq, handle))
            seq += 1
        self._live += seq - self._seq
        self._seq = seq

    def cancel(self, handle: EventHandle) -> None:
        """Mark a pending event dead; it will be skipped when popped.

        Cancelling twice is a harmless no-op, but a handle that has
        already *fired* — or that belongs to a different queue — raises
        ``ValueError``: decrementing the live count for such a handle
        silently corrupts queue bookkeeping.
        """
        if handle.cancelled:
            return
        if handle.queue is not self:
            reason = (
                "it is pending on a different queue"
                if handle.queue is not None
                else "it already fired"
            )
            raise ValueError(f"cannot cancel {handle!r}: {reason}")
        handle.cancelled = True
        handle.queue = None
        self._live -= 1

    def pop(self) -> EventHandle:
        """Remove and return the earliest live event."""
        heap = self._heap
        run = self._run
        while True:
            index = self._run_index
            if index < len(run):
                entry = run[index]
                assert entry is not None  # never consumed before _run_index
                if heap and heap[0] < entry:
                    handle = heappop(heap)[3]
                else:
                    handle = entry[3]
                    run[index] = None  # free the entry as it is consumed
                    self._run_index = index + 1
            elif heap:
                handle = heappop(heap)[3]
            else:
                raise IndexError("pop from an empty event queue")
            if handle.cancelled:
                continue
            handle.queue = None
            self._live -= 1
            return handle

    def check_consistency(self) -> None:
        """Verify the queue's structural invariants (sanitizer hook).

        Checks the heap property, the sorted run's ordering and
        consumed-prefix discipline, the live-count bookkeeping, and
        handle ownership.  O(pending events); called only under
        :mod:`repro.analysis.sanitize`.
        """
        from repro.analysis.sanitize import require

        heap = self._heap
        for index in range(1, len(heap)):
            parent = (index - 1) >> 1
            require(
                heap[parent] <= heap[index],
                f"event heap property violated at index {index}",
            )
        run = self._run
        require(
            0 <= self._run_index <= len(run),
            f"run index {self._run_index} outside the run of {len(run)}",
        )
        for index in range(self._run_index):
            require(
                run[index] is None,
                f"consumed run entry {index} was not freed",
            )
        previous = float("-inf")
        live = 0
        for index in range(self._run_index, len(run)):
            entry = run[index]
            require(entry is not None, f"pending run entry {index} is None")
            if entry is None:  # unreachable: require() raised; narrows the type
                continue
            require(
                entry[0] >= previous,
                f"sorted run out of order at index {index}",
            )
            previous = entry[0]
            if not entry[3].cancelled:
                live += 1
        for entry in heap:
            if not entry[3].cancelled:
                live += 1
        require(
            live == self._live,
            f"live-event count drift: {self._live} recorded, {live} present",
        )
        for entry in heap:
            handle = entry[3]
            if not handle.cancelled:
                require(
                    handle.queue is self,
                    f"pending handle {handle!r} does not own this queue",
                )

    def peek_time(self) -> float:
        """Timestamp of the earliest live event."""
        heap = self._heap
        run = self._run
        while heap and heap[0][3].cancelled:
            heappop(heap)
        while self._run_index < len(run):
            head = run[self._run_index]
            assert head is not None  # never consumed before _run_index
            if not head[3].cancelled:
                break
            self._run_index += 1
        index = self._run_index
        if index < len(run):
            entry = run[index]
            assert entry is not None  # never consumed before _run_index
            if heap and heap[0] < entry:
                return heap[0][0]
            return entry[0]
        if not heap:
            raise IndexError("peek into an empty event queue")
        return heap[0][0]


# -- the observer-facing lifecycle stream --------------------------------------
@dataclass(frozen=True, slots=True)
class LifecycleEvent:
    """Base of the typed event stream delivered to instruments.

    Every lifecycle event is frozen and carries plain scalars only —
    never a live :class:`~repro.scheduling.job.Job` or scheduler
    object — so observers cannot mutate simulation state through the
    events they receive (a property test pins this).
    """

    time: float


@dataclass(frozen=True, slots=True)
class JobSubmitted(LifecycleEvent):
    """A job arrived and joined the wait queue."""

    job_id: int
    size: int
    requested_time: float


@dataclass(frozen=True, slots=True)
class GearSelected(LifecycleEvent):
    """A gear decision was made for a job.

    ``reason`` is ``"start"`` for the selection made when the job is
    launched and ``"boost"`` when a running job is re-geared by the
    dynamic-boost extension.
    """

    job_id: int
    frequency: float
    reason: str


@dataclass(frozen=True, slots=True)
class JobStarted(LifecycleEvent):
    """A job began executing on the machine."""

    job_id: int
    size: int
    frequency: float
    wait_time: float


@dataclass(frozen=True, slots=True)
class JobFinished(LifecycleEvent):
    """A job completed and released its processors.

    ``runtime`` is the *nominal* (top-frequency) runtime and
    ``penalized_runtime`` the wall-clock execution actually observed, so
    a BSLD can be recomputed from the event alone.
    """

    job_id: int
    size: int
    frequency: float
    wait_time: float
    runtime: float
    penalized_runtime: float
    energy: float
    was_reduced: bool


@dataclass(frozen=True, slots=True)
class QueueDepthChanged(LifecycleEvent):
    """The wait-queue length after a scheduling pass differs from the last."""

    depth: int


@dataclass(frozen=True, slots=True)
class ClockTick(LifecycleEvent):
    """Simulation time advanced to a new timestamp.

    Emitted once per distinct event timestamp, after the first
    scheduling pass at that time has settled — the natural sampling
    point for telemetry instruments.
    """


@dataclass(frozen=True, slots=True)
class NodesSlept(LifecycleEvent):
    """Idle processors crossed the sleep threshold and powered down.

    Emitted by the :class:`~repro.cluster.power.NodePowerManager` off an
    engine ``CONTROL`` timer at the transition moment, so controller
    instruments (e.g. a power cap) observe the power drop when it
    happens rather than at the next job event.  ``count`` is how many
    processors just fell asleep; ``asleep`` the machine-wide total.
    """

    count: int
    asleep: int


@dataclass(frozen=True, slots=True)
class NodesWoke(LifecycleEvent):
    """Sleeping processors were roused to run a job.

    ``delay_seconds`` is the wake transition the job's execution window
    was stretched by (0 under an instantaneous-wake policy).
    """

    count: int
    delay_seconds: float


#: Per event class: its ``"event"`` tag and field names, in order.
_ROW_SHAPES: dict[type[LifecycleEvent], tuple[str, tuple[str, ...]]] = {}


def event_row(event: LifecycleEvent) -> dict[str, Any]:
    """One lifecycle event as a JSON-ready row.

    The class name under ``"event"``, then the dataclass fields in
    declaration order.  :class:`~repro.instruments.EventTraceRecorder`
    records these rows and the serve daemon streams them, so a recorded
    trace and a streamed one are interchangeable by construction.
    """
    shape = _ROW_SHAPES.get(type(event))
    if shape is None:
        names = tuple(field.name for field in fields(event))
        shape = _ROW_SHAPES[type(event)] = (type(event).__name__, names)
    tag, names = shape
    row: dict[str, Any] = {"event": tag}
    for name in names:
        row[name] = getattr(event, name)
    return row
