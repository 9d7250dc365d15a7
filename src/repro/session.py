"""The steppable run handle: :class:`SimulationSession`.

``Simulation(spec).run()`` answers "what happened?"; a session answers
"what is happening?".  It arms the scheduler without processing a
single event and then hands control to the caller::

    >>> from repro.api import Simulation
    >>> from repro.experiments.config import RunSpec
    >>> session = Simulation(RunSpec(workload="CTC", n_jobs=200)).session()
    >>> session.run_until(3600.0)        # simulate the first hour
    >>> session.step()                   # ... one event at a time
    True
    >>> session.run_for(50)              # ... or in event batches
    50
    >>> result = session.result()        # drains the queue, closes the books

Instruments (from ``RunSpec.instruments`` or passed directly) observe
the typed lifecycle stream while the session runs, and controller
instruments — or the caller, via :meth:`SimulationSession.set_policy`
and :meth:`SimulationSession.set_gear_cap` — can steer the run while it
is in flight.  Their reports are folded into the final
:class:`~repro.scheduling.result.SimulationResult`.
"""

from __future__ import annotations

from dataclasses import replace
from typing import TYPE_CHECKING, Sequence

from repro.instruments import Instrument, InstrumentContext, build_instruments
from repro.scheduling.result import InstrumentReport, SimulationResult
from repro.serialize import jsonable
from repro.sim.engine import SimulationError

if TYPE_CHECKING:  # imported for annotations only; avoids package cycles
    from repro.api import Simulation
    from repro.core.frequency_policy import FrequencyPolicy
    from repro.experiments.config import PolicySpec

__all__ = ["SessionCancelled", "SimulationSession"]


class SessionCancelled(RuntimeError):
    """The session was cancelled; no result will ever be produced.

    Raised by every driving method and by
    :meth:`SimulationSession.result` after
    :meth:`SimulationSession.cancel`.  Carries the cancel reason (if
    one was given) in its message.
    """


class SimulationSession:
    """A simulation under way: steppable, observable, controllable.

    Built via :meth:`repro.api.Simulation.session`.  The trace is
    loaded and all arrivals are queued at construction; no event has
    been processed yet.  Driving methods may be freely interleaved;
    :meth:`result` drains whatever remains and finalises (idempotently).
    """

    def __init__(
        self,
        simulation: Simulation,
        *,
        instruments: Sequence[Instrument] = (),
    ) -> None:
        self._simulation = simulation
        self._scheduler = simulation.build_scheduler()
        self._instruments: list[Instrument] = list(
            build_instruments(simulation.spec.instruments)
        )
        self._instruments.extend(instruments)
        context = InstrumentContext(self._scheduler)
        for instrument in self._instruments:
            instrument.attach(context)
            self._scheduler.attach_observer(instrument.on_event)
        self._engine = self._scheduler.prepare(simulation.jobs)
        self._result: SimulationResult | None = None
        self._cancelled: str | None = None

    # -- introspection -----------------------------------------------------------
    @property
    def spec(self):
        return self._simulation.spec

    @property
    def now(self) -> float:
        """Current simulation time."""
        return self._engine.now

    @property
    def pending_events(self) -> int:
        return self._engine.pending_events

    @property
    def events_processed(self) -> int:
        return self._engine.events_processed

    @property
    def done(self) -> bool:
        """Whether the event queue has drained."""
        return self._engine.pending_events == 0

    @property
    def queue_depth(self) -> int:
        """Jobs currently waiting on execution."""
        return self._scheduler.queue_depth

    @property
    def asleep_cpus(self) -> int:
        """Processors currently powered down (0 without a sleep policy)."""
        return self._scheduler.asleep_cpus

    @property
    def instruments(self) -> tuple[Instrument, ...]:
        return tuple(self._instruments)

    def instrument(self, name: str) -> Instrument:
        """The attached instrument registered under ``name``."""
        for instrument in self._instruments:
            if instrument.name == name:
                return instrument
        raise KeyError(
            f"no instrument named {name!r} attached; have "
            f"{[i.name or type(i).__name__ for i in self._instruments]}"
        )

    # -- driving -----------------------------------------------------------------
    def step(self) -> bool:
        """Process exactly one event; ``False`` once the queue is empty."""
        self._check_live()
        self._check_budget()
        return self._engine.step()

    def run_for(self, n_events: int) -> int:
        """Process at most ``n_events`` events; returns how many ran."""
        self._check_live()
        if n_events < 0:
            raise ValueError(f"n_events must be non-negative, got {n_events}")
        step = self._engine.step
        processed = 0
        while processed < n_events:
            self._check_budget()
            if not step():
                break
            processed += 1
        return processed

    def run_until(self, time: float) -> None:
        """Process every event with a timestamp at or before ``time``."""
        self._check_live()
        self._engine.run(until=time, max_events=self._scheduler.event_budget)

    def run_to_completion(self) -> None:
        """Drain the event queue (the tight engine loop, not stepping)."""
        self._check_live()
        self._engine.run(max_events=self._scheduler.event_budget)

    def _check_live(self) -> None:
        if self._cancelled is not None:
            raise SessionCancelled(self._cancelled)
        if self._result is not None:
            raise RuntimeError("session already finalised; build a new one to re-run")

    def _check_budget(self) -> None:
        # The same runaway guard Engine.run enforces for run_until /
        # run_to_completion: stepping past it means the scheduler is
        # rescheduling events endlessly, and a driving loop keyed on
        # `session.done` would otherwise spin forever.
        if self._engine.events_processed >= self._scheduler.event_budget:
            raise SimulationError(
                f"exceeded the {self._scheduler.event_budget}-event budget "
                f"at t={self._engine.now}"
            )

    @property
    def cancelled(self) -> bool:
        """Whether :meth:`cancel` has been called."""
        return self._cancelled is not None

    def cancel(self, reason: str = "") -> None:
        """Abandon the run: no further driving, no result, ever.

        Safe to call between (not during) driving calls — e.g. from the
        loop that slices the run with :meth:`run_for`.  The scheduler
        stands down its live engine handles (running jobs' finish
        events, the sleep manager's transition timer), so nothing in
        the dropped engine queue still points at scheduler state.
        Afterwards every driving method and :meth:`result` raise
        :class:`SessionCancelled` carrying ``reason``.  Idempotent;
        cancelling a session that already finalised is rejected — the
        result exists and stays retrievable.
        """
        if self._cancelled is not None:
            return
        if self._result is not None:
            raise RuntimeError("session already finalised; nothing to cancel")
        self._cancelled = (
            f"session cancelled: {reason}" if reason else "session cancelled"
        )
        self._scheduler.abort()

    # -- runtime control ----------------------------------------------------------
    def set_policy(self, policy: FrequencyPolicy | PolicySpec) -> None:
        """Hot-swap the frequency policy mid-run.

        Accepts a built policy or a
        :class:`~repro.experiments.config.PolicySpec` (materialised via
        its registered builder).  Running jobs keep their gears; the
        next scheduling decision uses the new policy.
        """
        build = getattr(policy, "build", None)
        if build is not None:
            policy = build()
        self._scheduler.set_policy(policy)

    def set_gear_cap(self, frequency: float | None) -> None:
        """Cap future gear selections at ``frequency`` GHz (``None`` lifts it)."""
        self._scheduler.set_gear_cap(frequency)

    @property
    def gear_cap(self) -> float | None:
        return self._scheduler.gear_cap

    # -- completion ----------------------------------------------------------------
    def result(self) -> SimulationResult:
        """Drain remaining events, close the books, collect instrument reports.

        Idempotent: the finalised result is cached and further driving
        is rejected.  Raises :class:`SessionCancelled` after
        :meth:`cancel` — a cancelled run has no books to close.
        """
        if self._cancelled is not None:
            raise SessionCancelled(self._cancelled)
        if self._result is None:
            self._engine.run(max_events=self._scheduler.event_budget)
            result = self._scheduler.finalize()
            if self._instruments:
                reports = tuple(
                    InstrumentReport(
                        name=instrument.name or type(instrument).__name__,
                        summary=jsonable(instrument.report()),
                    )
                    for instrument in self._instruments
                )
                result = replace(result, instruments=reports)
            self._result = result
        return self._result
