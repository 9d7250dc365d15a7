"""EASY backfilling with pluggable frequency assignment (paper §2).

EASY (Mu'alem & Feitelson) runs jobs in FCFS order, gives the queue
head a reservation at the earliest time enough processors free up, and
*backfills* later arrivals into the gaps provided they cannot delay the
head.  The power-aware variant of the paper is this scheduler with a
:class:`~repro.core.frequency_policy.BsldThresholdPolicy` plugged in:
``MakeJobReservation`` corresponds to the head path below and
``BackfillJob`` to the backfill scan.

The implementation exploits a structural fact: with only running jobs
holding processors, the free-CPU profile is *non-decreasing in time*,
so the head's earliest start ``t_res`` does not depend on its duration
and the classic O(1) backfill admission test is exact:

    size <= free_now  AND  (now + duration <= t_res  OR  size <= extra)

where ``extra`` is the number of processors left over at ``t_res`` once
the head has its share.  A slow profile-based reference implementation
(:mod:`repro.scheduling.reference`) cross-validates this scheduler in
the test suite.

Scaling: a pass no longer touches every waiting job.  When no processor
is free, nothing can start or backfill, so the pass ends after the
shared FCFS prefix — on an overloaded trace that is most passes.
Otherwise the candidate walk is driven by
:meth:`~repro.scheduling.queue.JobQueue.backfill_candidates`, a
vectorised superset pre-filter of the admission gates; only jobs that
pass it are touched in Python, and each is re-verified against the
exact gates, so schedules are bit-identical to the full scan's.  The
gates change only when an acceptance consumes processors and moves the
head's reservation, so the scan re-enumerates the remaining tail after
every acceptance — between acceptances the thresholds are static and
the pre-filter is a superset by construction.
"""

from __future__ import annotations

from typing import Sequence

from repro.registry import SCHEDULERS
from repro.scheduling.base import Scheduler
from repro.scheduling.job import Job
from repro.sim.engine import SimulationError

__all__ = ["EasyBackfilling", "head_reservation", "lowest_feasible"]


def head_reservation(
    estimates: list[tuple[float, int, int]], free: int, head: Job
) -> tuple[float, int]:
    """Earliest start ``t_res`` for ``head``, and the spare CPUs then.

    ``estimates`` holds the running jobs' ``(estimated_end, job_id,
    size)`` tuples in ascending order and ``free`` the idle processor
    count.  Walks the estimated (requested-time based) completions,
    accumulating freed processors until the head fits; all completions
    sharing the crossing timestamp count towards ``extra``.  Both cores
    call this one walk; each keeps its own memo around it.
    """
    if free >= head.size:
        raise SimulationError(
            f"reservation requested for head {head.job_id} that already fits"
        )
    t_res: float | None = None
    index = 0
    for index, (end, _job_id, size) in enumerate(estimates):
        free += size
        if free >= head.size:
            t_res = end
            break
    if t_res is None:
        raise SimulationError(
            f"head {head.job_id} (size {head.size}) cannot fit even on the "
            f"drained machine; trace validation should have caught this"
        )
    for end, _job_id, size in estimates[index + 1 :]:
        if end != t_res:
            break
        free += size
    return t_res, free - head.size


def lowest_feasible(
    now: float, requested: float, coefs: Sequence[float], t_res: float
) -> int:
    """The lowest ladder index at which a backfill ends by ``t_res``.

    The per-gear half of the O(1) admission test (see the module
    docstring): ``coefs`` are the candidate's time coefficients along
    the ascending gear ladder.  They are non-increasing, so the gears
    passing ``now + requested * coef <= t_res`` form a suffix and the
    scan stops at the first pass; ``len(coefs)`` means no gear fits.
    Both cores call this one test.
    """
    index = 0
    for coef in coefs:
        if now + requested * coef <= t_res:
            return index
        index += 1
    return index


@SCHEDULERS.register("easy")
class EasyBackfilling(Scheduler):
    """EASY backfilling; the paper's baseline and power-aware scheduler."""

    def _reset_pass_state(self) -> None:
        # (head_id, last t_res, starts_count at observation)
        self._reservation_watch: tuple[int, float, int] | None = None
        # (head_id, free_cpus, estimates version) -> (t_res, extra): the
        # reservation is a pure function of those three, so passes that
        # moved none of them (e.g. a burst of arrivals with nothing
        # starting) reuse the previous walk.
        self._reservation_memo: tuple[tuple[int, int, int], tuple[float, int]] | None = None
        # Candidate positions of the last acceptance-free scan, keyed by
        # (head_id, free_cpus, estimates version, queue generation).  A
        # later pass with the same key differs only by appended arrivals
        # and an advanced clock, which can only *tighten* the admission
        # gates — so the cached positions plus the new tail are a valid
        # superset and the pre-filter mask need not be recomputed.
        # Every candidate (including previously policy-skipped ones) is
        # still re-decided against current state, so arbitrary policies
        # stay exact.
        self._scan_cache: tuple[tuple[int, int, int, int], object, int] | None = None

    def _schedule_pass(self, now: float) -> None:
        self._start_heads(now)
        queue_len = len(self._queue)
        if queue_len == 0:
            self._reservation_watch = None
            return
        if not self.config.validate and (self._pool.free_cpus == 0 or queue_len == 1):
            # Nothing can backfill (no free processor, or no non-head
            # candidate); the head reservation is a pure computation
            # consumed only by the scan (and by the validate-mode watch,
            # which keeps the full path).
            return
        head = self._queue[0]
        t_res, extra = self._head_reservation(head)
        if self.config.validate:
            self._watch_reservation(head, t_res)
        if queue_len > 1:
            self._backfill_scan(now, head, t_res, extra)

    # -- reservation --------------------------------------------------------------
    def _head_reservation(self, head: Job) -> tuple[float, int]:
        """:func:`head_reservation` over the running set, memoised."""
        free = self._pool.free_cpus
        key = (head.job_id, free, self._est_version)
        memo = self._reservation_memo
        if memo is not None and memo[0] == key:
            return memo[1]
        result = head_reservation(self._estimates, free, head)
        self._reservation_memo = (key, result)
        return result

    def _watch_reservation(self, head: Job, t_res: float) -> None:
        """Validate the EASY guarantee: a head's reservation never slips.

        The guarantee is stated for instantaneous starts; with a
        non-zero wake latency every job started since the last watch may
        legitimately overrun the shadow time by up to one wake
        transition (the admission test is gear-exact but wake-blind),
        and each such overrun can push the head's crossing by at most
        that transition — so the watch tolerates exactly
        ``starts x wake_seconds`` of slip and still catches anything
        larger.
        """
        wake = self._sleep.wake_seconds if self._sleep is not None else 0.0
        watch = self._reservation_watch
        if watch is not None and watch[0] == head.job_id:
            allowed = watch[1] + (self._starts_count - watch[2]) * wake + 1e-9
            if t_res > allowed:
                raise SimulationError(
                    f"EASY guarantee violated: head {head.job_id} reservation moved "
                    f"from {watch[1]} to {t_res} (allowed {allowed})"
                )
        self._reservation_watch = (head.job_id, t_res, self._starts_count)

    # -- backfilling -----------------------------------------------------------------
    def _backfill_scan(self, now: float, head: Job, t_res: float, extra: int) -> None:
        """Walk the pre-filtered candidates against the exact admission test.

        ``queue.backfill_candidates`` hands back only positions whose
        jobs can possibly pass the cheap gates under the pass-start
        thresholds; each is then re-tested against the *current*
        thresholds, which is exactly what the full queue scan decided
        (jobs outside the pre-filter would have been skipped by the
        same comparisons).  ``queue_len`` mirrors what ``len(queue)``
        reads under eager removal, so policy decisions (the
        WQ-threshold gate) are unchanged.
        """
        queue = self._queue
        pool = self._pool
        total_cpus = pool.total_cpus
        ladder = self._ladder
        free_now = pool.free_cpus  # mirrored locally; only _start_job moves it
        if free_now == 0:
            return
        # Pre-filter slack, padded by a few ulps: the exact per-job gate
        # is `now + requested <= t_res`, whose rounding can differ from
        # the mask's `requested <= t_res - now` — the pad keeps the mask
        # a superset, and the exact form below re-decides every hit.
        slack = (t_res - now) + 1e-9 + 1e-12 * abs(t_res)
        key = (head.job_id, free_now, self._est_version, queue.generation)
        cache = self._scan_cache
        if cache is not None and cache[0] == key:
            # Same head, free count and running set as the last clean
            # scan: only arrivals were appended and the clock advanced,
            # so the cached candidates plus the new tail cover every
            # possibly-admissible job without recomputing the mask.
            positions, seen = cache[1], cache[2]
            n_now = queue.slots_used
            if n_now > seen:
                positions = queue.extend_positions(positions, seen, n_now)
        else:
            positions = queue.backfill_candidates(free_now, extra, slack)
        slots = queue.slots
        queue_len = len(queue)
        mask_t_res = t_res
        mask_extra = extra
        accepted_any = False
        while True:
            accepted_index = None
            for index, position in enumerate(positions):
                job = slots[position]
                if job is None:  # pragma: no cover - defensive
                    continue
                size = job.size
                if size > free_now:
                    continue
                if size <= extra:
                    # Fits beside the head's reservation at any duration.
                    lowest = 0
                elif not (now + job.requested_time <= t_res):
                    # Even the top gear (Coef == 1, the shortest stretch) ends
                    # past the shadow time, so no gear is feasible.  Policies
                    # never return an infeasible gear in a may-skip context,
                    # so the decision is a foregone skip — spare the call.
                    continue
                else:
                    lowest = lowest_feasible(
                        now, job.requested_time, self._coefficients(job.beta), t_res
                    )
                # self._policy is read per candidate, not cached at pass
                # start: a controller instrument reacting to the JobStarted
                # just emitted by _start_job may have swapped or capped the
                # policy, and the rest of the scan must honour that.
                gear_index = self._policy.select(
                    job,
                    now - job.submit_time,
                    queue_len - 1,
                    (total_cpus - free_now) / total_cpus,
                    False,
                    lowest,
                )
                if gear_index < 0:
                    continue
                queue.remove_at(position)
                queue_len -= 1
                free_now -= size
                started = self._start_job(now, job, ladder[gear_index])
                accepted_index = index
                break
            if accepted_index is None:
                if not accepted_any:
                    # Clean scan: every candidate was visited and none
                    # accepted, so the enumeration stays a valid
                    # superset for the next same-key pass.
                    self._scan_cache = (key, positions, queue.slots_used)
                return
            if free_now == 0:
                return
            accepted_any = True
            # The accepted job changed the estimate profile and the free
            # count; gates are static between acceptances, so the rest of
            # the scan visits the remaining tail under the new thresholds.
            # The reservation updates in O(1): the free processors the job
            # took and the estimate it added cancel exactly at t_res when
            # it ends by then; ending later, it consumes `size` of the
            # spare capacity.  Only an estimate overrunning t_res with
            # size beyond the spare (unclamped runtimes) moves t_res —
            # then rewalk.
            if started.estimated_end <= t_res:
                pass  # t_res and extra are unchanged
            elif size <= extra:
                extra -= size
            else:
                t_res, extra = self._head_reservation(head)
            if t_res > mask_t_res or extra > mask_extra:
                # Thresholds loosened past the pre-filter (only possible
                # with unclamped runtimes, where an estimate may overrun
                # t_res): the old enumeration is no longer a superset —
                # recompute it from the accepted position on.
                slack = (t_res - now) + 1e-9 + 1e-12 * abs(t_res)
                mask_t_res = t_res
                mask_extra = extra
                positions = queue.backfill_candidates(
                    free_now, extra, slack, after=int(position)
                )
            else:
                # Tightened only: the remaining tail is still a superset;
                # one cheap size gather drops most of the now-too-big jobs
                # without re-masking the whole window.
                positions = queue.narrow_positions(positions[index + 1 :], free_now)
            slots = queue.slots
