"""The columnar engine lane: a fused EASY/FCFS core over array state.

The reference core (:mod:`repro.scheduling.base`) is event-driven and
object-per-thing: an :class:`~repro.sim.engine.Engine` dispatching
handler callbacks, a ``_RunningJob`` object and an
:class:`~repro.sim.events.EventHandle` per start, and a
:class:`~repro.scheduling.job.JobOutcome` dataclass per completion.
Those objects are where most of the wall time of a large run goes — the
scheduling *logic* (reservation walk, backfill scan) is a small
fraction of it.

This module re-runs the same simulation with the allocation churn
stripped out:

* the event loop is fused: a sorted arrival cursor merged against a
  plain ``heapq`` of finish tuples — no engine, no handles, no handler
  dispatch, and runs of arrivals landing while the machine is saturated
  (``free == 0``, when a scheduling pass is provably a no-op) batch
  straight into the wait queue between decision points;
* per-job results land in preallocated numpy columns and come back as
  an :class:`~repro.scheduling.columns.OutcomeColumns` store — the
  dict-of-dataclass view is reconstructed lazily, and aggregate queries
  reduce over the arrays without materialising a single outcome.

Bit-exactness is the contract (the golden traces and the lane-vs-lane
differentials enforce it).  The scheduling semantics are shared code,
not copies — both cores call the same functions:

* every gear decision is the run's own
  :meth:`~repro.core.frequency_policy.FrequencyPolicy.select`, called
  with the same arguments as the reference scheduler calls it, at the
  same three sites: the queue heads of an FCFS pass and of an EASY
  pass, and the EASY backfill candidates;
* the EASY backfill scan, with its candidate cache, is the closure
  :func:`~repro.scheduling.easy.backfill_scanner` returns, bound here
  to this core's ``start_job``;
* EASY's per-gear admission test is
  :func:`~repro.scheduling.easy.lowest_feasible`;
* the head-reservation walk is
  :func:`~repro.scheduling.easy.head_reservation`, and the wait queue
  is :class:`~repro.scheduling.queue.JobQueue`.

Two pieces are restated here, each the *same expression in the same
order* as the reference core's (:mod:`repro.scheduling.base`):
``start_job``'s execution-window arithmetic (actual and estimated end)
and the energy segment accumulation on each finish.  Both run once per
job on the hottest path of the loop, so they stay inlined: sharing them
as calls (an execution-window helper, and an
``EnergyAccounting.add_job`` per finish) was measured to slow the
benchmark's ``inproc-deep`` workload (SDSC-200k, DVFS(2,NO)) from a
median request of 5.36 to 5.59 s, in 4 of 4 alternating pairs on
2 vCPUs (Python 3.11, numpy 2.4).

The core is resumable and observable (:class:`FusedCore`).  The event
loop is a generator that keeps every piece of loop state in fast locals
and yields at slice boundaries, so a
:class:`~repro.session.SimulationSession` can stop it after any number
of events and resume it where it stopped.  It counts arrivals and
finishes exactly as the reference engine counts its events, so the
clock, the event counters and the queue depth agree with the reference
core at every slice boundary.  With observers attached it emits the
:mod:`repro.sim.events` lifecycle stream in the reference scheduler's
order: ``JobSubmitted`` on an arrival, ``GearSelected`` then
``JobStarted`` per start, ``JobFinished`` on a finish, and
``ClockTick``/``QueueDepthChanged`` after every event — saturated
arrival batches and skipped no-op passes included.  With nobody
observing, the hooks cost one ``None`` check per event and one per
start.

Coverage: EASY and FCFS scheduling under the bundled ``nodvfs``,
``fixed``, ``bsld`` and ``util`` policy kinds, no boost, no sleep, no
timeline, no validate/sanitize mode, and only instruments that declare
they observe without steering
(:attr:`~repro.instruments.Instrument.observes_only`).
:func:`fallback_reason` names the first thing a run needs that the
fused core lacks; such runs execute on the reference core.  The policy
kinds are an allowlist, not "any registered policy": the arrival-pass
skip below is exact only when a rejected candidate stays rejected as
time passes under a fixed machine state, which holds for the bundled
kinds (their decisions read the wait, which only grows, and
utilisation, which a fixed free count pins) but not for an arbitrary
policy.
"""

from __future__ import annotations

import gc
from bisect import bisect_left, bisect_right, insort
from functools import partial
from heapq import heappop, heappush
from math import inf
from typing import TYPE_CHECKING, Any, Callable, Generator, NoReturn, Sequence

try:  # numpy is an optional accelerator, never a hard dependency
    import numpy as _np
except ImportError:  # pragma: no cover - exercised only without numpy
    _np = None

from repro.analysis.sanitize import enabled as sanitize_enabled
from repro.power.energy import EnergyAccounting
from repro.power.time_model import BetaTimeModel
from repro.registry import POWER_MODELS
from repro.scheduling.columns import OutcomeColumns
from repro.scheduling.easy import ScanCache, backfill_scanner, head_reservation
from repro.scheduling.job import Job, validate_jobs
from repro.scheduling.queue import JobQueue
from repro.scheduling.result import SimulationResult
from repro.sim.engine import SimulationError
from repro.sim.events import (
    ClockTick,
    GearSelected,
    JobFinished,
    JobStarted,
    JobSubmitted,
    LifecycleEvent,
    QueueDepthChanged,
)

if TYPE_CHECKING:  # imported for annotations only; avoids package cycles
    from repro.api import Simulation
    from repro.instruments import Instrument
    from repro.power.model import PowerModel

__all__ = ["FusedCore", "fallback_reason", "try_run_columnar"]

_SUPPORTED_SCHEDULERS = frozenset({"easy", "fcfs"})
_SUPPORTED_POLICY_KINDS = frozenset({"nodvfs", "fixed", "bsld", "util"})

#: What a slice hands back: (now, free CPUs, arrivals, computational
#: energy, busy CPU-seconds).
_Slice = tuple[float, int, int, float, float]


def fallback_reason(
    simulation: Simulation, instruments: Sequence[Instrument] = ()
) -> str | None:
    """Why the fused core cannot run ``simulation``, or ``None`` if it can.

    Returns the first reason that applies, in this order:
    ``numpy-missing``, ``validate``, ``sanitize``, ``scheduler=<name>``,
    ``policy=<kind>``, ``boost``, ``sleep``, ``timeline``,
    ``instrument=<name>`` (an attached instrument that does not declare
    it only observes), ``empty-trace``.
    """
    if _np is None:
        return "numpy-missing"
    if simulation.validate:
        return "validate"
    if simulation.sanitize or sanitize_enabled():
        return "sanitize"
    spec = simulation.spec
    if spec.scheduler not in _SUPPORTED_SCHEDULERS:
        return f"scheduler={spec.scheduler}"
    if spec.policy.kind not in _SUPPORTED_POLICY_KINDS:
        return f"policy={spec.policy.kind}"
    if spec.policy.boost_trigger is not None:
        return "boost"
    if spec.sleep is not None:
        return "sleep"
    if spec.record_timeline:
        return "timeline"
    for instrument in instruments:
        if not instrument.observes_only:
            return f"instrument={instrument.name or type(instrument).__name__}"
    if not simulation.jobs:
        return "empty-trace"  # the trivial empty trace stays on the reference core
    return None


def try_run_columnar(simulation: Simulation) -> SimulationResult | None:
    """Run ``simulation`` on the fused core, or ``None`` if not covered."""
    if fallback_reason(simulation) is not None:
        return None
    core = FusedCore(simulation)
    core.prepare(simulation.jobs).run()
    return core.finalize()


def _refuse_steering() -> NoReturn:
    raise RuntimeError(
        "the fused core cannot be steered mid-event: an instrument that "
        "steers must not declare observes_only"
    )


class FusedCore:
    """One run on the fused core: resumable, observable, not steerable.

    In a session it stands in for both halves of the reference core.
    As the scheduler it offers ``attach_observer``, ``prepare``,
    ``finalize``, ``abort`` and the probes an
    :class:`~repro.instruments.InstrumentContext` reads; as the engine
    that ``prepare`` returns it offers ``step``, ``run_for``, ``run``
    and the clock and event counters.  Steering is refused: a session
    moves a run to the reference core before it applies ``set_policy``
    or ``set_gear_cap``.
    """

    def __init__(self, simulation: Simulation) -> None:
        spec = simulation.spec
        self.machine = machine = simulation.machine
        gears = machine.gears
        self._time_model = BetaTimeModel.for_gear_set(gears, spec.beta)
        self._policy = spec.policy.build()
        self._policy.bind(gears, self._time_model)
        self._power_model: PowerModel = POWER_MODELS.get(spec.power_model)(gears)
        self._accounting = EnergyAccounting(self._power_model)
        self._scheduler_name = spec.scheduler
        self._ladder = gears.ascending()
        self._active_power: list[float] = [
            self._accounting._active_power[gear] for gear in self._ladder
        ]
        self._observers: list[Callable[[LifecycleEvent], None]] = []
        self._event_budget = 0
        # Started by the first slice, so observers attached between
        # prepare() and the first event still see every event.
        self._loop: Generator[_Slice, tuple[int, float], None] | None = None
        self._closed = False
        self._running: dict[int, tuple[int, int]] | None = None

    # -- scheduler face ------------------------------------------------------------
    def attach_observer(self, observer: Callable[[LifecycleEvent], None]) -> None:
        """Subscribe ``observer`` to the lifecycle stream (before the first event)."""
        if self._loop is not None or self._closed:
            raise RuntimeError("attach observers to the fused core before its first event")
        self._observers.append(observer)

    def prepare(self, jobs: Sequence[Job]) -> FusedCore:
        """Load ``jobs`` and arm the loop without processing any event."""
        trace = [job.clamped() for job in jobs]
        validate_jobs(trace, self.machine.total_cpus)
        self._jobs = trace
        self._n = len(trace)
        self._event_budget = 4 * len(trace) + 64
        self._queue = JobQueue()
        # Finish events: (actual_end, seq, row, job, gear_idx, start, estimate_entry).
        self._heap: list[tuple[float, int, int, Job, int, float, tuple[float, int, int]]] = []
        # Finished outcomes buffer in plain lists (appends are cheaper
        # than per-job numpy scalar stores) and scatter into the columns
        # once, in finalize(): row, start, end, gear index, energy.
        self._finished: tuple[list[int], list[float], list[float], list[int], list[float]] = (
            [], [], [], [], [],
        )  # fmt: skip
        self.now = 0.0
        self.free = self.machine.total_cpus
        self._arrived = 0
        self._energy = (0.0, 0.0)
        return self

    @property
    def event_budget(self) -> int:
        """The runaway guard the reference scheduler sizes for the trace."""
        return self._event_budget

    @property
    def queue_depth(self) -> int:
        return len(self._queue)

    @property
    def busy_cpus(self) -> int:
        return self.machine.total_cpus - self.free

    @property
    def asleep_cpus(self) -> int:
        return 0  # sleep policies are outside the fused coverage

    @property
    def gear_cap(self) -> float | None:
        return None

    def instantaneous_power(self) -> float:
        """Machine power now, summed in the reference scheduler's order."""
        assert self._running is not None, "kept only while observers are attached"
        active_power = self._active_power
        active = sum(active_power[gear] * size for gear, size in self._running.values())
        return active + self._power_model.idle_power() * self.free

    def set_policy(self, policy: Any) -> None:
        _refuse_steering()

    def set_gear_cap(self, frequency: float | None) -> None:
        _refuse_steering()

    def finalize(self) -> SimulationResult:
        """Close the books after every event ran (the reference's ``finalize``)."""
        n = self._n
        fin_rows, fin_start, fin_end, fin_gear, fin_energy = self._finished
        if len(fin_rows) != n:
            raise SimulationError(f"{n - len(fin_rows)} of {n} jobs never completed")
        self.abort()
        jobs = self._jobs
        rows = _np.array(fin_rows, dtype=_np.int64)
        out_start = _np.empty(n)
        out_finish = _np.empty(n)
        out_gear = _np.empty(n, dtype=_np.int64)
        out_energy = _np.empty(n)
        out_start[rows] = fin_start
        out_finish[rows] = fin_end
        out_gear[rows] = fin_gear
        out_energy[rows] = fin_energy
        out_reduced = out_gear != len(self._ladder) - 1
        ids = _np.fromiter((job.job_id for job in jobs), dtype=_np.int64, count=n)
        order = _np.argsort(ids, kind="stable")
        jobs_by_id = tuple(jobs[trace_row] for trace_row in order.tolist())
        outcomes = OutcomeColumns(
            jobs_by_id,
            self._ladder,
            out_start[order],
            out_finish[order],
            out_gear[order],
            out_energy[order],
            out_reduced[order],
        )
        accounting = self._accounting
        accounting._computational, accounting._busy_cpu_seconds = self._energy
        accounting._jobs = n
        report = accounting.report(
            self.machine.total_cpus, jobs[0].submit_time, float(out_finish.max())
        )
        return SimulationResult(
            machine=self.machine,
            policy=self._policy.describe(),
            outcomes=outcomes,
            energy=report,
            events_processed=2 * n,
            timeline=(),
        )

    def abort(self) -> None:
        """Drop the loop and the state it holds; no further event can run."""
        self._closed = True
        if self._loop is not None:
            self._loop.close()
            self._loop = None

    # -- engine face ---------------------------------------------------------------
    @property
    def events_processed(self) -> int:
        return self._arrived + len(self._finished[0])

    @property
    def pending_events(self) -> int:
        return self._n - self._arrived + len(self._heap)

    def step(self) -> bool:
        """Process exactly one event; ``False`` once none remain."""
        return self._advance(1, inf) == 1

    def run_for(self, n_events: int) -> int:
        """Process at most ``n_events`` events; returns how many ran."""
        return self._advance(n_events, inf)

    def run(self, until: float | None = None, max_events: int | None = None) -> None:
        """Process every event due at or before ``until`` (all, if ``None``).

        ``max_events`` is taken for parity with ``Engine.run`` and
        ignored: the fused core processes each arrival and each finish
        exactly once, ``2n`` events in all, so the runaway guard
        (``event_budget``, ``4n + 64``) cannot trip.
        """
        self._advance(2 * self._n, inf if until is None else until)

    def _advance(self, budget: int, until: float) -> int:
        """One slice: at most ``budget`` events, none later than ``until``.

        The cyclic garbage collector is paused for the slice, as
        ``Scheduler.run`` pauses it: the loop allocates many short-lived
        acyclic tuples that reference counting already reclaims.
        """
        if self._closed:
            raise SimulationError("the fused core was finalised or aborted")
        loop = self._loop
        if loop is None:
            loop = self._loop = self._events()
            next(loop)
        before = self.events_processed
        was_enabled = gc.isenabled()
        if was_enabled:
            gc.disable()
        try:
            self.now, self.free, self._arrived, comp, busy = loop.send((budget, until))
        except BaseException:
            self.abort()  # a loop that raised cannot resume
            raise
        finally:
            if was_enabled:
                gc.enable()
        self._energy = (comp, busy)
        return self.events_processed - before

    # -- the loop --------------------------------------------------------------------
    def _events(self) -> Generator[_Slice, tuple[int, float], None]:
        """The fused event loop; each ``send((budget, until))`` runs one slice."""
        core = self
        jobs = self._jobs
        n = self._n
        machine = self.machine
        total_cpus = machine.total_cpus
        time_model = self._time_model
        ladder = self._ladder
        freqs = machine.gears.frequencies
        top_idx = len(ladder) - 1
        coefficient = time_model.coefficient
        coefficients = time_model.coefficients
        # The exact memoised values the reference scheduler resolves per gear.
        default_coefs = coefficients(freqs)
        active_power = self._active_power
        select = self._policy.select

        # -- per-run state ------------------------------------------------------------
        queue = self._queue
        free = total_cpus
        # (estimated_end, job_id, size), sorted — the reservation profile,
        # maintained with the exact insort/bisect discipline of the
        # reference so the head-reservation walk sees identical tuples.
        estimates: list[tuple[float, int, int]] = []
        est_version = 0
        # seq is monotone, so heap ties at equal end times pop in schedule
        # order — the reference engine's (time, kind, seq) tie-break, with
        # arrivals-vs-finishes ordering handled by the strict `<` merge below.
        heap = self._heap
        seq = n
        reservation_memo: tuple[tuple[int, int, int], tuple[float, int]] | None = None
        # What the last backfill scan returned; arrival_pass reads it.
        scan_cache: ScanCache | None = None
        fin_rows, fin_start, fin_end, fin_gear, fin_energy = self._finished
        row_of = {job.job_id: row for row, job in enumerate(jobs)}
        submit = [job.submit_time for job in jobs]
        comp_energy = 0.0
        busy_cpu_seconds = 0.0

        # -- observation (every helper runs only when emit is not None) -----------
        observers = tuple(self._observers)
        # The running set in start order, kept only while observed:
        # instantaneous_power() sums it in the reference's order.
        running: dict[int, tuple[int, int]] = {}
        if observers:
            self._running = running
        notify: Callable[[LifecycleEvent], None]
        if len(observers) == 1:
            notify = observers[0]
        else:

            def fan_out(event: LifecycleEvent) -> None:
                for observer in observers:
                    observer(event)

            notify = fan_out
        emit = notify if observers else None  # checked once per event and per start

        last_tick = -inf
        last_depth = 0

        # Each helper first publishes the clock and the free count, the
        # state an instrument's probes read while it handles the event.
        def submitted(now: float, job: Job) -> None:
            core.now, core.free = now, free
            notify(JobSubmitted(now, job.job_id, job.size, job.requested_time))

        def started(now: float, job: Job, gear_idx: int) -> None:
            core.now, core.free = now, free
            running[job.job_id] = (gear_idx, job.size)
            frequency = ladder[gear_idx].frequency
            notify(GearSelected(now, job.job_id, frequency, "start"))
            notify(JobStarted(now, job.job_id, job.size, frequency, now - job.submit_time))

        def finished(now: float, job: Job, gear_idx: int, start: float, energy: float) -> None:
            core.now, core.free = now, free
            del running[job.job_id]
            notify(
                JobFinished(
                    time=now,
                    job_id=job.job_id,
                    size=job.size,
                    frequency=ladder[gear_idx].frequency,
                    wait_time=start - job.submit_time,
                    runtime=job.runtime,
                    penalized_runtime=now - start,
                    energy=energy,
                    was_reduced=gear_idx != top_idx,
                )
            )

        def settled(now: float) -> None:
            """``Scheduler._post_pass_emit``: a new timestamp, a new depth."""
            nonlocal last_tick, last_depth
            core.now, core.free = now, free
            if now > last_tick:
                last_tick = now
                notify(ClockTick(now))
            depth = queue._live
            if depth != last_depth:
                last_depth = depth
                notify(QueueDepthChanged(now, depth))

        def start_job(now: float, job: Job, gear_idx: int) -> float:
            """Mirror of ``Scheduler._start_job`` (no sleep): returns estimated_end."""
            nonlocal free, seq, est_version
            beta = job.beta
            if beta is None:
                coef = default_coefs[gear_idx]
            else:
                coef = coefficient(freqs[gear_idx], beta)
            free -= job.size
            actual_end = now + job.runtime * coef
            estimated = now + job.requested_time * coef
            entry = (estimated, job.job_id, job.size)
            insort(estimates, entry)
            est_version += 1
            heappush(heap, (actual_end, seq, row_of[job.job_id], job, gear_idx, now, entry))
            seq += 1
            if emit is not None:
                started(now, job, gear_idx)
            return estimated

        def start_heads(now: float) -> None:
            """The shared FCFS prefix of every pass (``Scheduler._start_heads``)."""
            while queue._live:
                head = queue._jobs[queue._head]
                assert head is not None
                if head.size > free:
                    break
                gear_idx = select(
                    head,
                    now - head.submit_time,
                    queue._live - 1,
                    (total_cpus - free) / total_cpus,
                    True,
                )
                queue.popleft()
                start_job(now, head, gear_idx)

        if self._scheduler_name == "easy":
            backfill_scan = backfill_scanner(
                queue,
                total_cpus,
                default_coefs,
                partial(coefficients, freqs),
                select,
                start_job,
                # Never called here: without wake stalls a backfilled start
                # ends by t_res or fits in the spare capacity beside the head.
                lambda head: head_reservation(estimates, free, head),
            )

            def run_pass(now: float) -> None:
                """Mirror of ``EasyBackfilling._schedule_pass`` (validate off),
                with the shared FCFS head loop inlined."""
                while queue._live:
                    head = queue._jobs[queue._head]
                    assert head is not None
                    if head.size > free:
                        break
                    gear_idx = select(
                        head,
                        now - head.submit_time,
                        queue._live - 1,
                        (total_cpus - free) / total_cpus,
                        True,
                    )
                    queue.popleft()
                    start_job(now, head, gear_idx)
                queue_len = queue._live
                if queue_len == 0 or free == 0 or queue_len == 1:
                    return
                head = queue._jobs[queue._head]
                assert head is not None
                # The memo check inlined (one per scheduling pass); misses
                # run the shared walk.
                nonlocal reservation_memo, scan_cache
                key = (head.job_id, free, est_version)
                memo = reservation_memo
                if memo is not None and memo[0] == key:
                    t_res, extra = memo[1]
                else:
                    t_res, extra = head_reservation(estimates, free, head)
                    reservation_memo = (key, (t_res, extra))
                scan_cache = backfill_scan(now, head, t_res, extra, free, est_version, scan_cache)

            def arrival_pass(now: float, job: Job) -> None:
                """An arrival-triggered pass, skipped when provably a no-op.

                Rejections only harden as ``now`` advances under fixed
                (free, estimates, head): the slack gate and the per-gear
                admission test tighten, waits grow so predicted BSLDs grow,
                utilisation is pinned by ``free``, and ``size > free`` is
                time-independent.  So if nothing has changed since the last
                clean scan (same est_version and free — any start or finish
                bumps est_version, and every intervening real pass either
                bumped it or re-stored the cache), every queued job is still
                rejected, and the pass is a no-op unless the head could
                start or the new arrival itself passes the exact admission
                gates.  Skipped arrivals are covered inductively: each was
                gate-rejected at its own arrival time under the same state.
                """
                if queue._live == 1:
                    if job.size > free:
                        return  # the arrival is the head and cannot start
                    run_pass(now)
                    return
                head = queue._jobs[queue._head]
                assert head is not None
                if head.size > free:
                    cache = scan_cache
                    if (
                        cache is not None
                        and cache[7] == est_version
                        and cache[8] == free
                        and cache[0] == head.job_id
                        and cache[1] == queue.generation
                    ):
                        memo = reservation_memo
                        if memo is not None and memo[0] == (
                            head.job_id, free, est_version,
                        ):
                            t_res, extra = memo[1]
                            size = job.size
                            if size > free or (
                                size > extra
                                and not (now + job.requested_time <= t_res)
                            ):
                                return
                run_pass(now)

        else:  # fcfs

            def run_pass(now: float) -> None:
                start_heads(now)

            def arrival_pass(now: float, job: Job) -> None:
                # FCFS starts heads only: with the (possibly new) head too
                # big for the free pool, the pass cannot start anything.
                head = queue._jobs[queue._head]
                assert head is not None
                if head.size > free:
                    return
                run_pass(now)

        # -- the fused event loop ------------------------------------------------------
        # Merge order matches the reference engine: JOB_FINISH < JOB_ARRIVAL
        # at equal timestamps, so an arrival is processed only while it is
        # *strictly* earlier than the next finish.  While the machine is
        # saturated (free == 0) a scheduling pass cannot start or backfill
        # anything, so arrivals landing before the next finish batch
        # straight into the queue — the event-batching between decision
        # points that makes saturated stretches cheap.  Every arrival and
        # every finish counts as one event against the slice's budget, as
        # the reference engine counts them.
        now = 0.0
        arrival_index = 0
        queue_append = queue.append
        fin_rows_append = fin_rows.append
        fin_start_append = fin_start.append
        fin_end_append = fin_end.append
        fin_gear_append = fin_gear.append
        fin_energy_append = fin_energy.append
        while True:
            budget, until = yield now, free, arrival_index, comp_energy, busy_cpu_seconds
            limit = bisect_right(submit, until)  # arrivals at or before `until`
            while budget:
                if heap:
                    next_finish = heap[0][0]
                    if arrival_index < limit and submit[arrival_index] < next_finish:
                        budget -= 1
                        now = submit[arrival_index]
                        arrived = jobs[arrival_index]
                        queue_append(arrived)
                        arrival_index += 1
                        if free:
                            if emit is None:
                                arrival_pass(now, arrived)
                            else:
                                submitted(now, arrived)
                                arrival_pass(now, arrived)
                                settled(now)
                            continue
                        stop = arrival_index + budget
                        if stop > limit:
                            stop = limit
                        first = arrival_index
                        if emit is None:
                            while arrival_index < stop and submit[arrival_index] < next_finish:
                                queue_append(jobs[arrival_index])
                                arrival_index += 1
                        else:
                            submitted(now, arrived)
                            settled(now)
                            while arrival_index < stop and submit[arrival_index] < next_finish:
                                arrived = jobs[arrival_index]
                                queue_append(arrived)
                                arrival_index += 1
                                now = arrived.submit_time
                                submitted(now, arrived)
                                settled(now)
                        budget -= arrival_index - first
                        now = submit[arrival_index - 1]
                        continue
                    if next_finish > until:
                        break
                    budget -= 1
                    now, _seq, row, job, gear_idx, start, entry = heappop(heap)
                    # The exact segment accounting of ``Scheduler._on_finish``:
                    # energy expression and accumulation order are bit-identical.
                    size = job.size
                    elapsed = now - start
                    energy = active_power[gear_idx] * size * elapsed
                    comp_energy += energy
                    busy_cpu_seconds += size * elapsed
                    free += size
                    index = bisect_left(estimates, entry)
                    if index >= len(estimates) or estimates[index] != entry:
                        raise SimulationError(
                            f"estimate entry for job {job.job_id} lost"
                        )
                    estimates.pop(index)
                    est_version += 1
                    fin_rows_append(row)
                    fin_start_append(start)
                    fin_end_append(now)
                    fin_gear_append(gear_idx)
                    fin_energy_append(energy)
                    if emit is None:
                        run_pass(now)
                    else:
                        finished(now, job, gear_idx, start, energy)
                        run_pass(now)
                        settled(now)
                elif arrival_index < limit:
                    budget -= 1
                    now = submit[arrival_index]
                    arrived = jobs[arrival_index]
                    queue_append(arrived)
                    arrival_index += 1
                    if emit is None:
                        arrival_pass(now, arrived)
                    else:
                        submitted(now, arrived)
                        arrival_pass(now, arrived)
                        settled(now)
                else:
                    break
