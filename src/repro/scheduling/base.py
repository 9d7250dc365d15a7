"""Shared scheduler machinery: job lifecycle, bookkeeping, boost, results.

Concrete policies (FCFS, EASY, conservative) subclass
:class:`Scheduler` and implement a single hook, ``_schedule_pass``,
invoked after every arrival and completion — the paper's "rescheduling
of all queued jobs is done when a job finishes earlier than it has been
expected" falls out of re-running the pass on each completion event.
"""

from __future__ import annotations

import gc
from abc import ABC, abstractmethod
from bisect import bisect_left, insort
from dataclasses import dataclass
from typing import Callable

from repro.analysis.sanitize import enabled as sanitize_enabled
from repro.cluster.machine import Machine
from repro.cluster.power import NodePowerManager, SleepPolicy
from repro.cluster.processors import ProcessorPool
from repro.core.dynamic_boost import DynamicBoostConfig, boost_plan
from repro.core.frequency_policy import FrequencyPolicy, GearCappedPolicy
from repro.core.gears import Gear
from repro.power.energy import EnergyAccounting, SleepEnergyBreakdown
from repro.power.model import PowerModel
from repro.power.time_model import BetaTimeModel, DEFAULT_BETA
from repro.scheduling.job import Job, JobOutcome, validate_jobs
from repro.scheduling.queue import JobQueue
from repro.scheduling.result import SimulationResult, TimelinePoint
from repro.sim.engine import Engine, SimulationError
from repro.sim.events import (
    ClockTick,
    EventKind,
    GearSelected,
    JobFinished,
    JobStarted,
    JobSubmitted,
    LifecycleEvent,
    NodesWoke,
    QueueDepthChanged,
)

__all__ = ["Scheduler", "SchedulerConfig"]


@dataclass(frozen=True)
class SchedulerConfig:
    """Cross-cutting simulation options.

    Attributes
    ----------
    validate:
        Enable per-pass invariant assertions (used heavily in tests).
    boost:
        Dynamic-boost extension configuration, or ``None`` to disable.
    record_timeline:
        Record a (time, queue length, busy CPUs) sample after every
        event; needed only by timeline-style figures.
    sleep:
        In-engine node power management
        (:class:`~repro.cluster.power.SleepPolicy`), or ``None`` for a
        conventional always-on machine.  A policy that can never sleep
        (``sleep_after_seconds=inf``) is treated as ``None``, keeping
        the run byte-identical to one without the subsystem.
    sanitize:
        Run the deep structural sanitizer after every scheduling pass
        (:mod:`repro.analysis.sanitize`); also enabled process-wide by
        ``REPRO_SANITIZE=1``.  Unlike ``validate`` (cross-structure
        accounting identities), the sanitizer re-verifies each core
        structure's *internal* invariants — event-queue ordering, queue
        tombstone columns, profile summaries, idle-stack netting,
        energy-book signs.  Zero cost when off.
    """

    validate: bool = False
    boost: DynamicBoostConfig | None = None
    record_timeline: bool = False
    sleep: SleepPolicy | None = None
    sanitize: bool = False


class _RunningJob:
    """Mutable state of a job in execution."""

    __slots__ = (
        "job",
        "gear",
        "first_gear",
        "start",
        "segment_start",
        "energy",
        "actual_end",
        "estimated_end",
        "finish_handle",
        "ever_reduced",
        "estimate_entry",
    )

    def __init__(self, job: Job, gear: Gear, start: float) -> None:
        self.job = job
        self.gear = gear
        self.first_gear = gear
        self.start = start
        self.segment_start = start
        self.energy = 0.0
        self.actual_end = start
        self.estimated_end = start
        self.finish_handle = None
        self.ever_reduced = False
        self.estimate_entry: tuple[float, int, int] | None = None


class Scheduler(ABC):
    """Base event-driven job scheduler over a DVFS machine."""

    def __init__(
        self,
        machine: Machine,
        policy: FrequencyPolicy,
        *,
        beta: float = DEFAULT_BETA,
        power_model: PowerModel | None = None,
        config: SchedulerConfig | None = None,
    ) -> None:
        self._machine = machine
        self._gears = machine.gears
        self._policy = policy
        self._time_model = BetaTimeModel.for_gear_set(machine.gears, beta)
        policy.bind(machine.gears, self._time_model)
        # Policies answer with an index into the ascending ladder; the
        # default-β coefficient of every gear is resolved once.
        self._ladder = machine.gears.ascending()
        self._frequencies = machine.gears.frequencies
        self._default_coefs = self._time_model.coefficients(self._frequencies)
        if power_model is not None and power_model.gears != machine.gears:
            raise ValueError("power model and machine use different gear sets")
        self._power_model = power_model or PowerModel(gears=machine.gears)
        self._config = config or SchedulerConfig()

        # Runtime-control state: the policy the run was configured with
        # (hot-swappable via set_policy) and an optional frequency cap
        # layered on top of it (set_gear_cap / the power_cap instrument).
        self._base_policy = policy
        self._gear_cap: float | None = None

        # Observers receive the typed lifecycle stream; with none
        # attached (every paper-reproduction path) emission costs one
        # truthiness check per hook site.
        self._observers: list[Callable[[LifecycleEvent], None]] = []

        # With no boost, validation, timeline, sanitizer or observers
        # configured, a pass is just the scheduling hook — _run_pass
        # takes a one-branch fast path instead of re-testing all five
        # per event.
        self._plain_pass = False
        self._sanitize = False

        # Schedulers that don't maintain incremental running-set state
        # (EASY, FCFS) skip the virtual no-op hook call per job event.
        cls = type(self)
        self._wants_lifecycle_hooks = (
            cls._note_started is not Scheduler._note_started
            or cls._note_finished is not Scheduler._note_finished
            or cls._note_reestimated is not Scheduler._note_reestimated
        )

        # Per-run state, initialised in prepare().
        self._sleep: NodePowerManager | None = None
        self._engine: Engine
        self._pool: ProcessorPool
        self._accounting: EnergyAccounting
        self._queue: JobQueue
        self._running: dict[int, _RunningJob]
        self._estimates: list[tuple[float, int, int]]  # (estimated_end, job_id, size)
        self._outcomes: list[JobOutcome]
        self._timeline: list[TimelinePoint]
        self._jobs_loaded = 0
        self._span_start = 0.0
        self._event_budget = 0

    # -- read-only views used by policies and tests -----------------------------
    @property
    def machine(self) -> Machine:
        return self._machine

    @property
    def policy(self) -> FrequencyPolicy:
        return self._policy

    @property
    def time_model(self) -> BetaTimeModel:
        return self._time_model

    @property
    def power_model(self) -> PowerModel:
        return self._power_model

    @property
    def config(self) -> SchedulerConfig:
        return self._config

    # -- session probes (valid between prepare() and finalize()) ----------------
    @property
    def now(self) -> float:
        """Current simulation time."""
        return self._engine.now

    @property
    def queue_depth(self) -> int:
        """Jobs currently waiting on execution."""
        return len(self._queue)

    @property
    def busy_cpus(self) -> int:
        return self._pool.busy_cpus

    @property
    def asleep_cpus(self) -> int:
        """Processors currently powered down (0 without a sleep policy)."""
        if self._sleep is None:
            return 0
        return self._sleep.asleep_cpus(self._engine.now)

    @property
    def event_budget(self) -> int:
        """The runaway guard sized for the loaded trace."""
        return self._event_budget

    def instantaneous_power(self) -> float:
        """Machine power right now, in the power model's (arbitrary) watts.

        Running jobs draw active power at their current gear; every idle
        processor draws the model's idle power — the same accounting the
        energy report integrates, sampled instantaneously.  Under a
        sleep policy, powered-down processors draw only the policy's
        fraction of idle power, and a job still waiting out its wake
        stall (``segment_start`` in the future) draws idle power, not
        its gear's — matching how the energy books price the boot.
        """
        model = self._power_model
        idle_power = model.idle_power()
        sleep = self._sleep
        if sleep is None:
            active = sum(
                model.active_power(r.gear) * r.job.size for r in self._running.values()
            )
            return active + idle_power * self._pool.free_cpus
        now = self._engine.now
        active = 0.0
        stalled = 0
        for r in self._running.values():
            if r.segment_start > now:
                stalled += r.job.size
            else:
                active += model.active_power(r.gear) * r.job.size
        asleep = sleep.asleep_cpus(now)
        awake_idle = self._pool.free_cpus - asleep
        return active + idle_power * (
            awake_idle + stalled + asleep * sleep.policy.sleep_power_fraction
        )

    # -- observers and runtime control -------------------------------------------
    def attach_observer(self, observer: Callable[[LifecycleEvent], None]) -> None:
        """Subscribe ``observer`` to the typed lifecycle stream.

        Observers are called synchronously, in attachment order, with
        frozen :class:`~repro.sim.events.LifecycleEvent` instances.
        Attach before :meth:`prepare` (sessions do): sleep-transition
        timers — and therefore ``NodesSlept``/``NodesWoke`` events —
        are armed only when an observer is present at prepare time.
        """
        self._observers.append(observer)
        self._plain_pass = False

    def _emit(self, event: LifecycleEvent) -> None:
        for observer in self._observers:
            observer(event)

    def set_policy(self, policy: FrequencyPolicy) -> None:
        """Hot-swap the frequency policy mid-run.

        Takes effect from the next scheduling decision; jobs already
        running keep their gears.  An active gear cap stays layered on
        top of the new policy.
        """
        policy.bind(self._gears, self._time_model)
        self._base_policy = policy
        self._refresh_policy()

    def set_gear_cap(self, frequency: float | None) -> None:
        """Cap future gear selections at ``frequency`` GHz (``None`` lifts it)."""
        self._gear_cap = frequency
        self._refresh_policy()

    @property
    def gear_cap(self) -> float | None:
        return self._gear_cap

    def _refresh_policy(self) -> None:
        if self._gear_cap is None:
            self._policy = self._base_policy
        else:
            capped = GearCappedPolicy(self._base_policy, self._gear_cap)
            capped.bind(self._gears, self._time_model)
            self._policy = capped

    # -- the public entry points ---------------------------------------------------
    def run(self, jobs: list[Job]) -> SimulationResult:
        """Simulate ``jobs`` (sorted by submit time) to completion.

        The cyclic garbage collector is paused for the duration of the
        event loop: a run allocates millions of short-lived, acyclic
        objects (outcomes, handles, running-job records), and periodic
        gen-0 scans over that churn cost ~8% of wall time while
        reference counting already reclaims everything.  The collector
        is restored — and the few long-lived cycles (engine ↔ handlers)
        collected — the moment the loop exits.
        """
        engine = self.prepare(jobs)
        was_enabled = gc.isenabled()
        if was_enabled:
            gc.disable()
        try:
            engine.run(max_events=self._event_budget)
        finally:
            if was_enabled:
                gc.enable()
        return self.finalize()

    def prepare(self, jobs: list[Job]) -> Engine:
        """Load ``jobs`` and arm the engine without processing any event.

        The first half of :meth:`run`, exposed so a
        :class:`~repro.session.SimulationSession` can drive the
        simulation incrementally; returns the armed engine.  Runtimes
        are clamped to the request on ingest (kill-at-limit), so no
        job runs past its estimate.
        """
        jobs = [job.clamped() for job in jobs]
        validate_jobs(jobs, self._machine.total_cpus)

        self._engine = Engine()
        self._pool = ProcessorPool(self._machine.total_cpus)
        self._accounting = EnergyAccounting(self._power_model)
        self._queue = JobQueue()
        self._running = {}
        self._estimates = []
        # Bumped on every estimate insert/remove; lets schedulers memoise
        # pure functions of the estimate profile (e.g. EASY's head
        # reservation) across passes that did not move it.
        self._est_version = 0
        self._outcomes = []
        self._timeline = []
        self._trigger = "init"  # "arrival" | "finish": what fired the current pass
        self._starts_count = 0  # jobs started so far (validate-mode slip bounds)
        self._jobs_loaded = len(jobs)
        self._span_start = jobs[0].submit_time if jobs else 0.0
        self._event_budget = 4 * len(jobs) + 64
        self._last_tick = float("-inf")
        self._last_depth = 0
        config = self._config
        # Resolved once per run: the env flag must not be re-read per
        # pass, and a disabled sanitizer must keep the plain fast path.
        self._sanitize = config.sanitize or sanitize_enabled()
        self._plain_pass = (
            config.boost is None
            and not config.validate
            and not config.record_timeline
            and not self._sanitize
            and not self._observers
        )
        self._reset_pass_state()

        self._engine.on(EventKind.JOB_ARRIVAL, self._on_arrival)
        self._engine.on(EventKind.JOB_FINISH, self._on_finish)
        self._engine.schedule_sorted(
            EventKind.JOB_ARRIVAL, [(job.submit_time, job) for job in jobs]
        )
        # Armed after the arrivals bulk-load: the manager schedules its
        # first sleep-transition CONTROL timer immediately, and
        # schedule_sorted requires an empty queue.
        sleep = self._config.sleep
        if sleep is not None and sleep.enabled:
            # CONTROL timers announce sleep transitions: at most one per
            # distinct release timestamp plus re-arms — comfortably
            # inside a doubled budget.
            self._event_budget = 8 * len(jobs) + 256
            self._engine.on(EventKind.CONTROL, self._on_sleep_timer)
            self._sleep = NodePowerManager(
                self._machine.total_cpus,
                sleep,
                self._span_start,
                engine=self._engine,
                emit=self._emit if self._observers else None,
            )
        else:
            self._sleep = None
        return self._engine

    def _on_sleep_timer(self, now: float, payload: object) -> None:
        self._sleep.on_timer(now, payload)

    def finalize(self) -> SimulationResult:
        """Close the books after the event queue drained.

        The second half of :meth:`run`; raises if any loaded job never
        completed (a drained queue with missing outcomes is a
        simulation bug, an undrained one a session stopped early).
        """
        if len(self._outcomes) != self._jobs_loaded:
            raise SimulationError(
                f"{self._jobs_loaded - len(self._outcomes)} of {self._jobs_loaded} "
                f"jobs never completed"
            )
        outcomes = tuple(sorted(self._outcomes, key=lambda o: o.job.job_id))
        span_end = max((o.finish_time for o in outcomes), default=self._span_start)
        breakdown = None
        if self._sleep is not None:
            manager = self._sleep
            manager.finalize(span_end)
            breakdown = SleepEnergyBreakdown(
                idle_awake_cpu_seconds=manager.idle_awake_cpu_seconds,
                asleep_cpu_seconds=manager.asleep_cpu_seconds,
                wake_count=manager.wake_count,
                sleep_power_fraction=manager.policy.sleep_power_fraction,
                wake_energy_idle_seconds=manager.policy.wake_energy_idle_seconds,
                wake_stall_cpu_seconds=manager.wake_stall_cpu_seconds,
                wake_delay_seconds_total=manager.wake_delay_seconds_total,
                wake_delayed_jobs=manager.wake_delayed_jobs,
            )
        report = self._accounting.report(
            self._machine.total_cpus, self._span_start, span_end, sleep=breakdown
        )
        return SimulationResult(
            machine=self._machine,
            # The *configured* policy (after any hot-swap), not the
            # transient gear-cap wrapper: whether a power-cap controller
            # happens to be engaged at the final event must not change
            # how the run is labelled.
            policy=self._base_policy.describe(),
            outcomes=outcomes,
            energy=report,
            events_processed=self._engine.events_processed,
            timeline=tuple(self._timeline),
        )

    def abort(self) -> None:
        """Stand down a run abandoned mid-flight (session cancel).

        Cancels every live engine handle this scheduler owns — running
        jobs' finish events and the sleep manager's transition timer —
        so nothing in the abandoned engine queue still points back at
        scheduler state.  Queued arrivals remain (they carry no
        scheduler references); the run can never be resumed or
        finalised after this.
        """
        for running in self._running.values():
            if running.finish_handle is not None:
                self._engine.cancel(running.finish_handle)
                running.finish_handle = None
        if self._sleep is not None:
            self._sleep.disarm()

    # -- event handlers ----------------------------------------------------------
    def _on_arrival(self, now: float, job: Job) -> None:
        self._queue.append(job)
        if self._observers:
            self._emit(JobSubmitted(now, job.job_id, job.size, job.requested_time))
        self._trigger = "arrival"
        self._run_pass(now)

    def _on_finish(self, now: float, running: _RunningJob) -> None:
        running.energy += self._accounting.add_segment(
            running.gear, running.job.size, now - running.segment_start
        )
        self._accounting.count_job()
        self._pool.release(running.job.size)
        if self._sleep is not None:
            self._sleep.release(running.job.size, now)
        self._drop_estimate(running)
        del self._running[running.job.job_id]
        if self._wants_lifecycle_hooks:
            self._note_finished(running, now)
        self._outcomes.append(
            JobOutcome(
                job=running.job,
                start_time=running.start,
                finish_time=now,
                gear=running.first_gear,
                penalized_runtime=now - running.start,
                energy=running.energy,
                was_reduced=running.ever_reduced,
            )
        )
        if self._observers:
            job = running.job
            self._emit(
                JobFinished(
                    time=now,
                    job_id=job.job_id,
                    size=job.size,
                    frequency=running.first_gear.frequency,
                    wait_time=running.start - job.submit_time,
                    runtime=job.runtime,
                    penalized_runtime=now - running.start,
                    energy=running.energy,
                    was_reduced=running.ever_reduced,
                )
            )
        self._trigger = "finish"
        self._run_pass(now)

    def _run_pass(self, now: float) -> None:
        if self._plain_pass:
            self._schedule_pass(now)
            return
        self._schedule_pass(now)
        if self._maybe_boost(now):
            # Boosting shortens running-job estimates, which can open new
            # backfill windows; run one more pass (boost is then a no-op).
            self._schedule_pass(now)
        if self._config.validate:
            self._check_invariants(now)
        if self._sanitize:
            self._sanitize_pass(now)
        if self._config.record_timeline:
            self._timeline.append(
                TimelinePoint(time=now, queued_jobs=len(self._queue), busy_cpus=self._pool.busy_cpus)
            )
        if self._observers:
            self._post_pass_emit(now)

    def _post_pass_emit(self, now: float) -> None:
        """ClockTick on a new timestamp, QueueDepthChanged on a new depth."""
        if now > self._last_tick:
            self._last_tick = now
            self._emit(ClockTick(now))
        depth = len(self._queue)
        if depth != self._last_depth:
            self._last_depth = depth
            self._emit(QueueDepthChanged(now, depth))

    # -- the policy hook -------------------------------------------------------------
    @abstractmethod
    def _schedule_pass(self, now: float) -> None:
        """Start/reserve/backfill queued jobs at time ``now``."""

    def _reset_pass_state(self) -> None:
        """Hook for subclasses holding per-run scratch state."""

    # -- running-set lifecycle hooks --------------------------------------------
    # Subclasses that maintain incremental structures over the running
    # set (e.g. conservative backfilling's availability profile) override
    # these; the defaults cost one no-op call per job event.
    def _note_started(self, running: _RunningJob, now: float) -> None:
        """Called after ``running`` starts and its estimate is registered."""

    def _note_finished(self, running: _RunningJob, now: float) -> None:
        """Called after ``running`` completes and leaves the running set."""

    def _note_reestimated(self, running: _RunningJob, old_estimated_end: float, now: float) -> None:
        """Called after a mid-run gear switch moved ``running``'s estimate."""

    # -- shared mechanics ----------------------------------------------------------
    def _start_heads(self, now: float) -> None:
        """Launch queue heads while they fit (shared FCFS prefix of every pass)."""
        queue = self._queue
        pool = self._pool
        # Reads the queue's head slot directly: this runs on every pass
        # and usually starts nothing, so the three method calls of the
        # naive `while queue: queue[0]` loop are worth skipping.
        while queue._live:
            head = queue._jobs[queue._head]
            if not pool.fits(head.size):
                break
            index = self._policy.select(
                head, now - head.submit_time, len(queue) - 1, self._utilization(), True
            )
            if index < 0:
                raise SimulationError(
                    f"policy {self._policy.describe()} refused to schedule queue head "
                    f"{head.job_id} (must_schedule decisions cannot be skipped)"
                )
            queue.popleft()
            self._start_job(now, head, index)

    def _start_job(self, now: float, job: Job, gear_index: int) -> float:
        """Start ``job`` at ladder index ``gear_index``; returns its estimated end."""
        gear = self._ladder[gear_index]
        coefficient = self._time_model.coefficient(gear.frequency, job.beta)
        self._pool.allocate(job.size)
        # A start that rouses sleeping nodes stalls for the wake
        # transition: the whole execution window stretches by the delay.
        # The job holds its processors from dispatch, but active power is
        # billed only from `begin` — the stall itself is priced at idle
        # power by the manager (plus the explicit per-node transition
        # energy), not at the job's gear.
        begin = now
        woken = 0
        if self._sleep is not None:
            delay, woken = self._sleep.acquire(job.size, now)
            begin = now + delay
        running = _RunningJob(job, gear, now)
        running.segment_start = begin
        running.actual_end = begin + job.runtime * coefficient
        running.estimated_end = begin + job.requested_time * coefficient
        running.ever_reduced = gear != self._gears.top
        running.finish_handle = self._engine.schedule(
            running.actual_end, EventKind.JOB_FINISH, running
        )
        entry = (running.estimated_end, job.job_id, job.size)
        insort(self._estimates, entry)
        self._est_version += 1
        running.estimate_entry = entry
        self._running[job.job_id] = running
        self._starts_count += 1
        if self._wants_lifecycle_hooks:
            self._note_started(running, now)
        if self._observers:
            if woken:
                # Emitted here, not inside the manager: by now the
                # running set is consistent, so observers reacting to
                # the wake sample sane machine state.
                self._emit(NodesWoke(now, woken, begin - now))
            self._emit(GearSelected(now, job.job_id, gear.frequency, "start"))
            self._emit(
                JobStarted(now, job.job_id, job.size, gear.frequency, now - job.submit_time)
            )
        return running.estimated_end

    def _drop_estimate(self, running: _RunningJob) -> None:
        entry = running.estimate_entry
        if entry is None:
            raise SimulationError(f"job {running.job.job_id} has no estimate entry")
        index = bisect_left(self._estimates, entry)
        if index >= len(self._estimates) or self._estimates[index] != entry:
            raise SimulationError(f"estimate entry for job {running.job.job_id} lost")
        self._estimates.pop(index)
        self._est_version += 1
        running.estimate_entry = None

    def _maybe_boost(self, now: float) -> bool:
        boost = self._config.boost
        if boost is None or not boost.should_boost(len(self._queue)):
            return False
        top = self._gears.top
        boosted = False
        for running in self._running.values():
            if running.gear == top:
                continue
            # A job still waiting out a wake stall has not started
            # executing: anchor the plan at segment_start so only the
            # execution window is gear-scaled — scaling from `now` would
            # compress the (frequency-invariant) boot time and could
            # reschedule the finish before the nodes have even booted.
            anchor = running.segment_start if running.segment_start > now else now
            plan = boost_plan(
                now=anchor,
                current_gear=running.gear,
                gears=self._gears,
                time_model=self._time_model,
                beta=running.job.beta,
                actual_end=running.actual_end,
                estimated_end=running.estimated_end,
                config=boost,
            )
            if plan is None:
                continue
            new_actual, new_estimated = plan
            self._switch_gear(running, top, now, new_actual, new_estimated)
            boosted = True
        return boosted

    def _switch_gear(
        self,
        running: _RunningJob,
        gear: Gear,
        now: float,
        new_actual_end: float,
        new_estimated_end: float,
        reason: str = "boost",
    ) -> None:
        elapsed = now - running.segment_start
        if elapsed > 0.0:
            running.energy += self._accounting.add_segment(
                running.gear, running.job.size, elapsed
            )
            running.segment_start = now
        # else: the job is still inside its wake stall — the pending
        # active segment keeps its (future) start and bills at the new
        # gear from there.
        running.gear = gear
        self._engine.cancel(running.finish_handle)
        running.finish_handle = self._engine.schedule(
            new_actual_end, EventKind.JOB_FINISH, running
        )
        running.actual_end = new_actual_end
        self._drop_estimate(running)
        old_estimated_end = running.estimated_end
        running.estimated_end = new_estimated_end
        entry = (new_estimated_end, running.job.job_id, running.job.size)
        insort(self._estimates, entry)
        self._est_version += 1
        running.estimate_entry = entry
        if self._wants_lifecycle_hooks:
            self._note_reestimated(running, old_estimated_end, now)
        if self._observers:
            self._emit(GearSelected(now, running.job.job_id, gear.frequency, reason))

    def _utilization(self) -> float:
        return self._pool.busy_cpus / self._pool.total_cpus

    def _coefficients(self, beta: float | None) -> tuple[float, ...]:
        """A job's time coefficients along the ascending gear ladder."""
        if beta is None:
            return self._default_coefs
        return self._time_model.coefficients(self._frequencies, beta)

    def _sanitize_pass(self, now: float) -> None:
        """Deep structural re-verification of every core structure.

        Called after each settled scheduling pass when the sanitizer is
        on (:mod:`repro.analysis.sanitize`).  Subclasses holding extra
        incremental structures (conservative backfilling's availability
        profile) extend this.  Raises
        :class:`~repro.analysis.sanitize.SanitizeError` on the first
        violated invariant.
        """
        from repro.analysis.sanitize import require

        self._engine.check_consistency()
        self._queue.check_consistency()
        pool = self._pool
        require(
            0 <= pool.free_cpus <= pool.total_cpus,
            f"pool free count {pool.free_cpus} outside "
            f"[0, {pool.total_cpus}] at t={now}",
        )
        require(
            self._accounting._computational >= 0.0,
            f"computational energy went negative at t={now}",
        )
        require(
            self._accounting._busy_cpu_seconds >= 0.0,
            f"busy CPU-seconds went negative at t={now}",
        )
        estimates = self._estimates
        for index in range(1, len(estimates)):
            require(
                estimates[index - 1] <= estimates[index],
                f"estimate profile lost its ordering at index {index}",
            )
        if self._sleep is not None:
            self._sleep.check_consistency(pool.free_cpus)

    # -- validation -----------------------------------------------------------------
    def _check_invariants(self, now: float) -> None:
        busy = sum(r.job.size for r in self._running.values())
        if busy != self._pool.busy_cpus:
            raise SimulationError(
                f"CPU accounting drift at t={now}: running jobs hold {busy} CPUs "
                f"but the pool reports {self._pool.busy_cpus}"
            )
        if not 0 <= self._pool.free_cpus <= self._pool.total_cpus:
            raise SimulationError(f"free CPU count out of range: {self._pool.free_cpus}")
        if len(self._estimates) != len(self._running):
            raise SimulationError(
                f"estimate list ({len(self._estimates)}) out of sync with "
                f"running set ({len(self._running)})"
            )
        for running in self._running.values():
            if running.estimated_end + 1e-9 < running.actual_end:
                raise SimulationError(
                    f"job {running.job.job_id} estimate precedes its actual end"
                )
        submits = [job.submit_time for job in self._queue]
        if submits != sorted(submits):
            raise SimulationError("wait queue lost FCFS order")
