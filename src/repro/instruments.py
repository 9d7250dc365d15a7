"""Session instruments: typed observers (and controllers) of a running run.

An *instrument* subscribes to the frozen lifecycle-event stream a
:class:`~repro.scheduling.base.Scheduler` emits (:mod:`repro.sim.events`)
and may read — or, for controller instruments, steer — the simulation
through the :class:`InstrumentContext` it is attached with.  Instruments
register on :data:`repro.registry.INSTRUMENTS` under a spec name, which
makes them addressable from :class:`~repro.experiments.config.RunSpec`
(``instruments=...``) and therefore usable through every execution path:
``Simulation.run()``, :class:`~repro.session.SimulationSession`,
:class:`~repro.batch.BatchRunner` workers and the CLI.

The bundled instruments::

    power_telemetry  PowerTelemetrySampler — watts/utilization time series
    bsld_monitor     BsldMonitor           — running BSLD percentiles
    event_trace      EventTraceRecorder    — the raw lifecycle stream
    power_cap        PowerCapController    — runtime power capping (control)

Every :meth:`Instrument.report` must return JSON-native data (dicts,
lists, strings, numbers, booleans, ``None``): reports are embedded in
:class:`~repro.scheduling.result.SimulationResult` and round-trip
through the :mod:`repro.serialize` codecs and the batch result cache.
"""

from __future__ import annotations

from bisect import insort
from typing import TYPE_CHECKING, Any

from repro.metrics.aggregates import nearest_rank
from repro.metrics.bsld import BSLD_THRESHOLD_SECONDS, bounded_slowdown
from repro.registry import INSTRUMENTS
from repro.sim.events import (
    ClockTick,
    JobFinished,
    JobStarted,
    LifecycleEvent,
    NodesSlept,
    NodesWoke,
    event_row,
)

if TYPE_CHECKING:  # imported for annotations only; avoids package cycles
    from repro.core.frequency_policy import FrequencyPolicy
    from repro.core.gears import GearSet
    from repro.scheduling.base import Scheduler
    from repro.sim.columnar import FusedCore

__all__ = [
    "Instrument",
    "InstrumentContext",
    "PowerTelemetrySampler",
    "BsldMonitor",
    "EventTraceRecorder",
    "PowerCapController",
    "build_instruments",
]


class InstrumentContext:
    """What an instrument may see and touch of a running simulation.

    Read accessors expose scheduler state as plain values; the control
    surface (:meth:`set_gear_cap`, :meth:`set_policy`) is the *only*
    sanctioned way for an instrument to influence a run — the lifecycle
    events themselves are frozen.  The context reads whichever core runs
    the session: the reference :class:`~repro.scheduling.base.Scheduler`
    or the fused :class:`~repro.sim.columnar.FusedCore`, which refuses
    the control surface.
    """

    __slots__ = ("_scheduler",)

    def __init__(self, scheduler: Scheduler | FusedCore) -> None:
        self._scheduler = scheduler

    # -- read probes ------------------------------------------------------------
    @property
    def now(self) -> float:
        return self._scheduler.now

    @property
    def queue_depth(self) -> int:
        return self._scheduler.queue_depth

    @property
    def busy_cpus(self) -> int:
        return self._scheduler.busy_cpus

    @property
    def asleep_cpus(self) -> int:
        """Processors currently powered down (0 without a sleep policy)."""
        return self._scheduler.asleep_cpus

    @property
    def total_cpus(self) -> int:
        return self._scheduler.machine.total_cpus

    @property
    def utilization(self) -> float:
        return self.busy_cpus / self.total_cpus

    @property
    def gears(self) -> GearSet:
        return self._scheduler.machine.gears

    @property
    def gear_cap(self) -> float | None:
        return self._scheduler.gear_cap

    def instantaneous_power(self) -> float:
        """Machine power right now (model watts); see the power model docs."""
        return self._scheduler.instantaneous_power()

    # -- control surface ---------------------------------------------------------
    def set_gear_cap(self, frequency: float | None) -> None:
        """Cap future gear selections at ``frequency`` GHz (``None`` lifts it)."""
        self._scheduler.set_gear_cap(frequency)

    def set_policy(self, policy: FrequencyPolicy) -> None:
        """Hot-swap the frequency policy from the next scheduling decision."""
        self._scheduler.set_policy(policy)


class Instrument:
    """Base class for session instruments.

    Subclasses override :meth:`on_event` (called with every lifecycle
    event) and :meth:`report` (a JSON-native summary collected into the
    :class:`~repro.scheduling.result.SimulationResult`).  ``name`` is
    the registry spec name, mirrored on the class so sessions can look
    instruments up while a run is in flight.

    ``observes_only`` declares that the instrument never steers: it
    reads the context's probes but never calls its control surface.  A
    session runs on the fused core only when every attached instrument
    declares this; an undeclared instrument starts the run on the
    reference core, which also serves any steering.
    """

    name: str = ""
    observes_only: bool = False

    def __init__(self) -> None:
        self._context: InstrumentContext | None = None

    @property
    def context(self) -> InstrumentContext:
        if self._context is None:
            raise RuntimeError(f"instrument {type(self).__name__} is not attached")
        return self._context

    def attach(self, context: InstrumentContext) -> None:
        """Called once, after the scheduler is built and before any event."""
        self._context = context

    def on_event(self, event: LifecycleEvent) -> None:  # pragma: no cover - interface
        """Receive one lifecycle event (frozen; hold it freely)."""

    def report(self) -> dict[str, Any]:
        """JSON-native summary of everything this instrument measured."""
        return {}


#: Nearest-rank percentile of an ascending list (which must be non-empty);
#: shared with aggregates-only results so both report the same definition.
_percentile = nearest_rank


@INSTRUMENTS.register("power_telemetry")
class PowerTelemetrySampler(Instrument):
    """Time series of instantaneous power, busy CPUs and queue depth.

    Samples on every :class:`~repro.sim.events.ClockTick` — once per
    distinct simulation timestamp, after the scheduling pass settled —
    thinned to at most one sample per ``min_interval`` simulated
    seconds.  ``max_samples`` bounds memory on very long runs: once
    reached, recording stops but the peak/mean accumulators stay live.
    """

    name = "power_telemetry"
    observes_only = True

    def __init__(self, min_interval: float = 0.0, max_samples: int | None = None) -> None:
        super().__init__()
        if min_interval < 0.0:
            raise ValueError(f"min_interval must be non-negative, got {min_interval}")
        if max_samples is not None and max_samples <= 0:
            raise ValueError(f"max_samples must be positive, got {max_samples}")
        self.min_interval = min_interval
        self.max_samples = max_samples
        #: rows of [time, watts, busy_cpus, queue_depth, asleep_cpus]
        self.samples: list[list[float]] = []
        self._last_sample_time = float("-inf")
        self._dropped = 0
        self._peak_watts = 0.0
        self._peak_time = 0.0
        self._watts_sum = 0.0
        self._watts_count = 0

    def on_event(self, event: LifecycleEvent) -> None:
        # Sleep transitions are sampling points too: they are the only
        # moments machine power changes without a job event.
        if type(event) not in (ClockTick, NodesSlept, NodesWoke):
            return
        if event.time - self._last_sample_time < self.min_interval:
            return
        self._last_sample_time = event.time
        context = self.context
        watts = context.instantaneous_power()
        self._watts_sum += watts
        self._watts_count += 1
        if watts > self._peak_watts:
            self._peak_watts = watts
            self._peak_time = event.time
        if self.max_samples is not None and len(self.samples) >= self.max_samples:
            self._dropped += 1
            return
        self.samples.append(
            [
                event.time,
                watts,
                float(context.busy_cpus),
                float(context.queue_depth),
                float(context.asleep_cpus),
            ]
        )

    @property
    def peak_watts(self) -> float:
        return self._peak_watts

    def report(self) -> dict[str, Any]:
        return {
            "samples": [list(sample) for sample in self.samples],
            "sample_count": len(self.samples) + self._dropped,
            "dropped_samples": self._dropped,
            "peak_watts": self._peak_watts,
            "peak_time": self._peak_time,
            "mean_watts": (
                self._watts_sum / self._watts_count if self._watts_count else 0.0
            ),
        }


@INSTRUMENTS.register("bsld_monitor")
class BsldMonitor(Instrument):
    """Running BSLD percentiles over the completed-job population.

    Recomputes p50/p90/p99 over all finished jobs every
    ``sample_every`` completions (an insertion-sorted list makes each
    snapshot O(1) after the insert) and reports the final distribution.
    """

    name = "bsld_monitor"
    observes_only = True

    def __init__(
        self, sample_every: int = 250, threshold: float = BSLD_THRESHOLD_SECONDS
    ) -> None:
        super().__init__()
        if sample_every <= 0:
            raise ValueError(f"sample_every must be positive, got {sample_every}")
        if threshold <= 0.0:
            raise ValueError(f"threshold must be positive, got {threshold}")
        self.sample_every = sample_every
        self.threshold = threshold
        self._sorted: list[float] = []
        self._sum = 0.0
        self._last_finish_time = 0.0
        self.series: list[list[float]] = []  # [time, count, mean, p50, p90, p99]

    def _bsld(self, event: JobFinished) -> float:
        return bounded_slowdown(
            wait_time=event.wait_time,
            runtime=event.runtime,
            penalized_runtime=event.penalized_runtime,
            threshold=self.threshold,
        )

    def _snapshot(self, time: float) -> list[float]:
        values = self._sorted
        return [
            time,
            float(len(values)),
            self._sum / len(values),
            _percentile(values, 50.0),
            _percentile(values, 90.0),
            _percentile(values, 99.0),
        ]

    def on_event(self, event: LifecycleEvent) -> None:
        if type(event) is not JobFinished:
            return
        bsld = self._bsld(event)
        insort(self._sorted, bsld)
        self._sum += bsld
        self._last_finish_time = event.time
        if len(self._sorted) % self.sample_every == 0:
            self.series.append(self._snapshot(event.time))

    @property
    def count(self) -> int:
        return len(self._sorted)

    def percentile(self, percent: float) -> float:
        if not self._sorted:
            raise ValueError("no jobs finished yet")
        return _percentile(self._sorted, percent)

    def report(self) -> dict[str, Any]:
        if not self._sorted:
            return {"count": 0, "series": []}
        series = [list(point) for point in self.series]
        # The tail of the run after the last sample_every multiple would
        # otherwise never appear in the series even though the headline
        # stats reflect it; close the series at the last finished job.
        if not series or series[-1][1] != len(self._sorted):
            series.append(self._snapshot(self._last_finish_time))
        return {
            "count": len(self._sorted),
            "mean": self._sum / len(self._sorted),
            "p50": _percentile(self._sorted, 50.0),
            "p90": _percentile(self._sorted, 90.0),
            "p99": _percentile(self._sorted, 99.0),
            "max": self._sorted[-1],
            "series": series,
        }


@INSTRUMENTS.register("event_trace")
class EventTraceRecorder(Instrument):
    """Record the raw lifecycle stream as JSON-ready rows.

    The structured replacement for ad-hoc post-run exports: each row is
    :func:`~repro.sim.events.event_row` — the event's fields plus an
    ``"event"`` type tag — streamable to CSV via
    :func:`repro.scheduling.export.event_trace_to_csv`.  ``kinds``
    filters by event class name; ``limit`` caps memory (excess events
    are counted, not stored).
    """

    name = "event_trace"
    observes_only = True

    def __init__(
        self, kinds: str | tuple[str, ...] | None = None, limit: int | None = None
    ) -> None:
        super().__init__()
        if limit is not None and limit <= 0:
            raise ValueError(f"limit must be positive, got {limit}")
        if isinstance(kinds, str):
            # A bare name would otherwise tuple() into characters and
            # silently filter out every event.
            kinds = (kinds,)
        self.kinds = tuple(kinds) if kinds is not None else None
        self.limit = limit
        self.events: list[dict[str, Any]] = []
        self._dropped = 0

    def on_event(self, event: LifecycleEvent) -> None:
        kind = type(event).__name__
        if self.kinds is not None and kind not in self.kinds:
            return
        if self.limit is not None and len(self.events) >= self.limit:
            self._dropped += 1
            return
        self.events.append(event_row(event))

    def report(self) -> dict[str, Any]:
        return {
            "events": self.events,
            "recorded": len(self.events),
            "dropped": self._dropped,
        }


@INSTRUMENTS.register("power_cap")
class PowerCapController(Instrument):
    """Enforce a (possibly time-varying) power cap by forcing lower gears.

    A reactive controller in the spirit of Eco-Mode power capping: on
    every clock tick and job start/finish it samples instantaneous
    power; while the sample exceeds the active cap it ratchets the
    machine-wide gear cap one gear lower (down to ``Flowest``), and once
    power falls back below ``release`` x cap it relaxes one gear at a
    time until the cap is lifted.  Jobs already running keep their
    gears — capping shapes future selections, as a real resource
    manager's submit-path governor would.

    Parameters
    ----------
    cap:
        Power ceiling in the power model's (arbitrary) watts.
    release:
        Hysteresis fraction: relax only when power <= ``release * cap``.
    schedule:
        Optional ``((time, cap), ...)`` step schedule; the entry with
        the largest time <= now replaces ``cap`` from that time on.
    """

    name = "power_cap"

    def __init__(
        self,
        cap: float,
        release: float = 0.9,
        schedule: tuple[tuple[float, float], ...] = (),
    ) -> None:
        super().__init__()
        if cap <= 0.0:
            raise ValueError(f"cap must be positive, got {cap}")
        if not 0.0 < release <= 1.0:
            raise ValueError(f"release must be in (0, 1], got {release}")
        normalized = tuple(sorted((float(t), float(c)) for t, c in schedule))
        for _, scheduled_cap in normalized:
            if scheduled_cap <= 0.0:
                raise ValueError(f"scheduled caps must be positive, got {scheduled_cap}")
        self.cap = cap
        self.release = release
        self.schedule = normalized
        self._cap_index: int | None = None  # index into the gear ladder; None = uncapped
        self.transitions: list[list[float | None]] = []  # [time, watts, cap_freq|None]
        self._capped_since: float | None = None
        self._time_capped = 0.0
        self._max_watts = 0.0
        self._reductions = 0

    def active_cap(self, time: float) -> float:
        """The cap in force at ``time`` under the step schedule."""
        cap = self.cap
        for step_time, step_cap in self.schedule:
            if step_time <= time:
                cap = step_cap
            else:
                break
        return cap

    @property
    def engaged(self) -> bool:
        return self._cap_index is not None

    def on_event(self, event: LifecycleEvent) -> None:
        # Sleep transitions (NodesSlept/NodesWoke) move machine power
        # without a job event, so a cap controller must resample on
        # them — e.g. to relax the cap once enough nodes power down.
        if type(event) not in (ClockTick, JobStarted, JobFinished, NodesSlept, NodesWoke):
            return
        context = self.context
        watts = context.instantaneous_power()
        if watts > self._max_watts:
            self._max_watts = watts
        cap = self.active_cap(event.time)
        if watts > cap:
            self._tighten(event.time, watts)
        elif self._cap_index is not None and watts <= self.release * cap:
            self._relax(event.time, watts)

    def _tighten(self, time: float, watts: float) -> None:
        ladder = self.context.gears.ascending()
        current = self._cap_index if self._cap_index is not None else len(ladder) - 1
        lower = max(0, current - 1)
        if self._cap_index == lower:
            return  # already at the floor
        if self._cap_index is None:
            self._capped_since = time
        self._cap_index = lower
        self._reductions += 1
        self.context.set_gear_cap(ladder[lower].frequency)
        self.transitions.append([time, watts, ladder[lower].frequency])

    def _relax(self, time: float, watts: float) -> None:
        ladder = self.context.gears.ascending()
        assert self._cap_index is not None
        higher = self._cap_index + 1
        if higher >= len(ladder) - 1:
            self._cap_index = None
            if self._capped_since is not None:
                self._time_capped += time - self._capped_since
                self._capped_since = None
            self.context.set_gear_cap(None)
            self.transitions.append([time, watts, None])
        else:
            self._cap_index = higher
            self.context.set_gear_cap(ladder[higher].frequency)
            self.transitions.append([time, watts, ladder[higher].frequency])

    def report(self) -> dict[str, Any]:
        time_capped = self._time_capped
        if self._capped_since is not None:
            # Still engaged when the run ended: close the interval at the
            # current simulation clock.
            time_capped += max(0.0, self.context.now - self._capped_since)
        return {
            "cap": self.cap,
            "release": self.release,
            "schedule": [list(step) for step in self.schedule],
            "max_watts": self._max_watts,
            "reductions": self._reductions,
            "transitions": [list(t) for t in self.transitions],
            "time_capped": time_capped,
            "engaged_at_end": self._cap_index is not None,
        }


def build_instruments(specs) -> list[Instrument]:
    """Materialise :class:`~repro.experiments.config.InstrumentSpec`s.

    Each spec names an :data:`~repro.registry.INSTRUMENTS` entry; its
    params become constructor keyword arguments.
    """
    return [spec.build() for spec in specs]
