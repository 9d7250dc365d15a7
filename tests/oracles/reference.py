"""Profile-based schedulers — the slow, obviously-correct references.

These schedulers reimplement :class:`repro.scheduling.easy.EasyBackfilling`
and :class:`repro.scheduling.conservative.ConservativeBackfilling`
directly on top of :class:`~repro.cluster.profile.AvailabilityProfile`,
the way the paper's ``findAllocation`` / ``TryToFindBackfilledAllocation``
pseudocode reads: every pass rebuilds the running-jobs profile from
scratch.  Conservative backfilling plans on the same profile class, so
the two conservative schedulers differ only in how they maintain it
(rebuilt per pass here, kept incrementally there).  They exist so
property tests can assert that the fast implementations — EASY's O(1)
admission test, conservative's incrementally-maintained profile —
produce *identical schedules* (same start times, same gears) on
arbitrary workloads.  Do not use them for large traces.
"""

from __future__ import annotations

from collections import deque
from itertools import islice

from repro.cluster.profile import AvailabilityProfile
from repro.scheduling.base import Scheduler
from repro.scheduling.job import Job
from repro.sim.engine import SimulationError

__all__ = ["ReferenceEasyBackfilling", "ReferenceConservativeBackfilling"]


class ReferenceEasyBackfilling(Scheduler):
    def _schedule_pass(self, now: float) -> None:
        self._start_heads(now)
        if not self._queue:
            return
        head = self._queue[0]
        profile = self._running_profile(now)
        t_res = self._head_start(profile, now, head)
        if len(self._queue) == 1:
            return
        trial = self._with_head_reserved(profile, now, head, t_res)
        for job in list(islice(self._queue, 1, len(self._queue))):
            if self._pool.free_cpus == 0:
                break
            if job.size > self._pool.free_cpus:
                continue
            index = self._policy.select(
                job,
                now - job.submit_time,
                len(self._queue) - 1,
                self._utilization(),
                False,
                self._lowest_fit(trial, job, now),
            )
            if index < 0:
                continue
            self._queue.remove(job)
            self._start_job(now, job, index)
            profile = self._running_profile(now)
            t_res = self._head_start(profile, now, head)
            trial = self._with_head_reserved(profile, now, head, t_res)

    # -- profile plumbing -----------------------------------------------------
    def _running_profile(self, now: float) -> AvailabilityProfile:
        """Free-CPU profile from running jobs' estimated completions.

        Jobs whose estimate has already elapsed (a completion pending at
        this very timestamp) contribute free processors from ``now`` on,
        mirroring the fast implementation's reservation walk; actual
        availability *right now* is separately gated on the pool.
        """
        profile = AvailabilityProfile(self._pool.total_cpus, origin=now)
        for end, _job_id, size in self._estimates:
            if end > now:
                profile.reserve(now, end, size)
        return profile

    def _head_start(self, profile: AvailabilityProfile, now: float, head: Job) -> float:
        duration = head.requested_time * self._time_model.coefficient(
            self._gears.top.frequency, head.beta
        )
        t_res = profile.find_start(now, duration, head.size)
        if t_res <= now and not self._pool.fits(head.size):
            # Free only because of a completion pending at this timestamp;
            # the head starts when that finish event fires its own pass.
            return t_res
        if t_res <= now:
            raise SimulationError(
                f"head {head.job_id} fits immediately but was not started"
            )
        return t_res

    def _with_head_reserved(
        self, profile: AvailabilityProfile, now: float, head: Job, t_res: float
    ) -> AvailabilityProfile:
        trial = profile.copy()
        duration = head.requested_time * self._time_model.coefficient(
            self._gears.top.frequency, head.beta
        )
        start = max(t_res, now)
        trial.reserve(start, start + duration, head.size)
        return trial

    def _lowest_fit(self, trial: AvailabilityProfile, job: Job, now: float) -> int:
        """The lowest ladder index whose stretched window fits ``trial`` now.

        Probes every gear from ``Flowest`` up; a shorter window fits
        wherever a longer one does, so the fitting gears form a suffix.
        """
        for index, coef in enumerate(self._coefficients(job.beta)):
            if trial.fits_at(now, job.requested_time * coef, job.size):
                return index
        return len(self._ladder)


class ReferenceConservativeBackfilling(Scheduler):
    """Conservative backfilling that replans on a fresh profile every pass.

    This is the original rebuild-per-pass implementation (O(R*S) profile
    construction per event on top of the O(Q²) planning work); the fast
    :class:`~repro.scheduling.conservative.ConservativeBackfilling`
    maintains the running-jobs profile incrementally and must stay
    schedule-identical to this one.
    """

    def _reset_pass_state(self) -> None:
        #: With ``config.validate``, every pass appends
        #: ``(trigger, now, {job_id: reserved_start})`` here; tests use it
        #: to assert the conservative no-delay guarantee.
        self.plan_log: list[tuple[str, float, dict[int, float]]] = []

    def _schedule_pass(self, now: float) -> None:
        if not self._queue:
            return
        profile = self._running_profile(now)
        pending = list(self._queue)
        still_waiting: deque[Job] = deque()
        plan: dict[int, float] = {}
        top = len(self._ladder) - 1
        for job in pending:
            wq_size = len(pending) - 1
            wait_for = self._wait_probe(profile, job, now)
            index = self._policy.select(
                job,
                wait_for(top),
                wq_size,
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
            duration = self._scaled_request(job, index)
            start = profile.find_start(now, duration, job.size)
            begin = max(start, now)
            # Whether started or merely reserved, the job consumes profile
            # space so later queue entries cannot plan over it (the
            # conservative property).
            profile.reserve(begin, begin + duration, job.size)
            plan[job.job_id] = begin
            if start <= now and self._pool.fits(job.size):
                self._start_job(now, job, index)
            else:
                still_waiting.append(job)
        self._queue.clear()
        self._queue.extend(still_waiting)
        if self._config.validate:
            self.plan_log.append((self._trigger, now, plan))

    # -- helpers ---------------------------------------------------------------
    def _running_profile(self, now: float) -> AvailabilityProfile:
        profile = AvailabilityProfile(self._pool.total_cpus, origin=now)
        for end, _job_id, size in self._estimates:
            if end > now:
                profile.reserve(now, end, size)
        return profile

    def _scaled_request(self, job: Job, index: int) -> float:
        return job.requested_time * self._coefficients(job.beta)[index]

    def _wait_probe(self, profile: AvailabilityProfile, job: Job, now: float):
        def wait_for(index: int) -> float:
            duration = self._scaled_request(job, index)
            start = profile.find_start(now, duration, job.size)
            return max(start, now) - job.submit_time

        return wait_for
