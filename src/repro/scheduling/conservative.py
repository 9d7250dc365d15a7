"""Conservative backfilling (extension baseline), incremental profile.

Unlike EASY, *every* queued job holds a reservation, and a job may only
backfill if it delays no reservation at all.  The paper's frequency-
assignment loop plugs in unchanged — here the predicted wait time is
genuinely gear-dependent (a slower, longer job may only fit into a
later hole).  Every queued job is a must-schedule decision with
``lowest_feasible=0``; the pass hands
:meth:`~repro.core.frequency_policy.FrequencyPolicy.select` a
``wait_for(index)`` probe of the planning profile, and ``wait`` is that
probe's top-gear answer.

Queued-job reservations are still replanned from scratch on every event
(classic "compression on early completion" behaviour), but the
*running-jobs* availability profile — which the original implementation
rebuilt with one ``reserve`` per running job per pass — is maintained
incrementally across events through the scheduler lifecycle hooks: a
starting job reserves ``[now, estimated_end)`` once, a finishing job
releases its remaining claim, and each pass merely advances the profile
origin and copies it.  The rebuild-per-pass implementation lives on as
``ReferenceConservativeBackfilling`` in ``tests/oracles/reference.py``,
and a differential test pins this scheduler to it schedule-for-schedule.
Both plan on the one flat :class:`~repro.cluster.profile.AvailabilityProfile`
(see that module for why it carries no index).
"""

from __future__ import annotations

from collections import deque

from repro.cluster.profile import AvailabilityProfile
from repro.registry import SCHEDULERS
from repro.scheduling.base import Scheduler, _RunningJob
from repro.scheduling.job import Job
from repro.sim.engine import SimulationError

__all__ = ["ConservativeBackfilling"]


class _StartProbe:
    """Memoizing earliest-start prober for one queued job in one pass.

    The BSLD policy asks for the prospective wait at up to every gear,
    and the planning loop needs the start of the chosen gear again; each
    ask used to be an independent profile scan from ``now``.  Two exact
    properties collapse that: identical durations share one answer (the
    memo), and for a fixed size a shorter window never starts later —
    so the top-gear (shortest, ``Coef == 1``) start, computed once,
    floors the scan for every slower gear without changing its result.
    """

    __slots__ = (
        "_profile", "_now", "_size", "_submit", "_requested", "_coefs",
        "_cache", "_floor",
    )

    def __init__(self, profile: AvailabilityProfile, job: Job, now: float,
                 coefs: tuple[float, ...]) -> None:
        self._profile = profile
        self._now = now
        self._size = job.size
        self._submit = job.submit_time
        self._requested = job.requested_time
        self._coefs = coefs
        self._cache: dict[float, float] = {}
        self._floor: float | None = None

    def duration_for(self, index: int) -> float:
        """The job's requested window at ladder index ``index``."""
        return self._requested * self._coefs[index]

    def start_for(self, duration: float) -> float:
        cache = self._cache
        start = cache.get(duration)
        if start is not None:
            return start
        floor = self._floor
        if floor is None:
            top_duration = self._requested * self._coefs[-1]
            floor = self._profile.find_start(self._now, top_duration, self._size)
            self._floor = floor
            cache[top_duration] = floor
            if duration == top_duration:
                return floor
        start = self._profile.find_start(floor, duration, self._size)
        cache[duration] = start
        return start

    def wait_for(self, index: int) -> float:
        start = self.start_for(self.duration_for(index))
        if start < self._now:
            start = self._now
        return start - self._submit


@SCHEDULERS.register("conservative")
class ConservativeBackfilling(Scheduler):
    def _reset_pass_state(self) -> None:
        #: With ``config.validate``, every pass appends
        #: ``(trigger, now, {job_id: reserved_start})`` here; tests use it
        #: to assert the conservative no-delay guarantee.
        self.plan_log: list[tuple[str, float, dict[int, float]]] = []
        #: Free-CPU profile of the *running* jobs only, kept in sync by
        #: the lifecycle hooks below.  Queued-job reservations never
        #: enter it — they are replanned on a per-pass copy.
        self._profile = AvailabilityProfile(self._pool.total_cpus)

    # -- incremental profile maintenance ----------------------------------------
    def _note_started(self, running: _RunningJob, now: float) -> None:
        if running.estimated_end > now:
            self._profile.reserve(now, running.estimated_end, running.job.size)

    def _note_finished(self, running: _RunningJob, now: float) -> None:
        # Return the unused tail of the estimate (early completion); the
        # consumed part lies in the past and is dropped by the next
        # ``advance_origin``.
        if running.estimated_end > now:
            self._profile.release(now, running.estimated_end, running.job.size)

    def _note_reestimated(self, running: _RunningJob, old_estimated_end: float, now: float) -> None:
        size = running.job.size
        if old_estimated_end > now:
            self._profile.release(now, old_estimated_end, size)
        if running.estimated_end > now:
            self._profile.reserve(now, running.estimated_end, size)

    def _sanitize_pass(self, now: float) -> None:
        super()._sanitize_pass(now)
        # The incremental running-set profile is this scheduler's extra
        # structure; a misordered breakpoint or an out-of-range free
        # count would silently misplace reservations on the next
        # replanning pass.
        self._profile.check_consistency()

    # -- the pass ----------------------------------------------------------------
    def _schedule_pass(self, now: float) -> None:
        self._profile.advance_origin(now)
        if not self._queue:
            return
        if self._pool.free_cpus == 0 and not self._config.validate:
            # Replanning is pure computation until something can start:
            # reservations are rebuilt from scratch on every pass, so a
            # pass that provably starts nothing (no free processor, and
            # frequency policies are pure functions of their inputs)
            # leaves no trace — the next pass with free capacity replans
            # identically.  Validate mode keeps the full path so the
            # plan log covers every event.
            return
        profile = self._profile.copy()
        pending = list(self._queue)
        still_waiting: deque[Job] = deque()
        plan: dict[int, float] = {}
        top = len(self._ladder) - 1
        wq_size = len(pending) - 1
        for job in pending:
            probe = _StartProbe(profile, job, now, self._coefficients(job.beta))
            wait_for = probe.wait_for
            index = self._policy.select(
                job,
                wait_for(top),
                wq_size,
                # Recomputed per job: jobs started earlier in this very
                # pass raise the utilisation later candidates observe.
                self._utilization(),
                True,  # every job gets a reservation
                0,
                wait_for,
            )
            if index < 0:
                raise SimulationError(
                    f"policy {self._policy.describe()} refused job {job.job_id} "
                    f"in a must_schedule decision"
                )
            duration = probe.duration_for(index)
            start = probe.start_for(duration)
            begin = max(start, now)
            # Whether started or merely reserved, the job consumes profile
            # space so later queue entries cannot plan over it (the
            # conservative property).
            end = begin + duration
            plan[job.job_id] = begin
            if start <= now and self._pool.fits(job.size):
                self._start_job(now, job, index)
                stall = self._running[job.job_id].segment_start - now
                if stall > 0.0:
                    # The start roused sleeping nodes: its true window
                    # includes the wake stall, and later queue entries in
                    # this very pass must not plan over the boot (future
                    # reservations stay wake-blind — wake state at a
                    # future start is unknowable — but every pass replans
                    # over the incremental profile, which carries the
                    # stall through estimated_end).  Keyed on the actual
                    # stall, so zero-wake schedules stay byte-identical to
                    # a sleep-free run.
                    end += stall
            else:
                still_waiting.append(job)
            profile.reserve(begin, end, job.size)
        self._queue.clear()
        self._queue.extend(still_waiting)
        if self._config.validate:
            self.plan_log.append((self._trigger, now, plan))

