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
the head has its share.  Slow profile-based oracles
(``tests/oracles/reference.py``) cross-validate this scheduler in the
test suite.

EASY's semantics live here once, for both engine cores: the
head-reservation walk (:func:`head_reservation`), the per-gear
admission test (:func:`lowest_feasible`) and the backfill scan
(:func:`backfill_scanner`).  :class:`EasyBackfilling` and the fused
core of :mod:`repro.sim.columnar` each bind the scan once per run to
their own queue, policy call, start routine and reservation walk.

Scaling: a pass does not touch every waiting job.  When no processor
is free, nothing can start or backfill, so the pass ends after the
shared FCFS prefix — on an overloaded trace that is most passes.
Otherwise the candidate walk is driven by
:meth:`~repro.scheduling.queue.JobQueue.backfill_candidates`, a
vectorised superset pre-filter of the admission gates; only jobs that
pass it are touched in Python, and each is re-verified against the
exact gates, so schedules are bit-identical to the full scan's.  An
acceptance tightens the gates unless a node wake-up stalled the start,
so the scan walks on through the rest of the same enumeration and
re-enumerates the remaining tail only after such a stalled start.
"""

from __future__ import annotations

from typing import Any, Callable, Sequence

from repro.registry import SCHEDULERS
from repro.scheduling.base import Scheduler
from repro.scheduling.job import Job
from repro.scheduling.queue import JobQueue
from repro.sim.engine import SimulationError

__all__ = [
    "EasyBackfilling", "ScanCache", "backfill_scanner", "head_reservation", "lowest_feasible",
]

#: ``select(job, wait, wq_size, utilization, must_schedule,
#: lowest_feasible)``: the policy call made per backfill candidate; a
#: ladder index, or ``-1`` to skip the job.
Select = Callable[[Job, float, int, float, bool, int], int]

#: What a clean scan (one that started nothing) leaves for the next:
#: ``(head_id, queue generation, free, extra, slack, positions,
#: slots_used, estimates version, free at the scan)`` — the candidate
#: positions with the thresholds they were enumerated at, and the
#: machine state that rejected every one of them.
ScanCache = tuple[int, int, int, int, float, Any, int, int, int]

#: ``scan(now, head, t_res, extra, free, version, cache) -> cache``.
Scan = Callable[[float, Job, float, int, int, int, ScanCache | None], ScanCache | None]


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


def backfill_scanner(
    queue: JobQueue,
    total_cpus: int,
    default_coefs: tuple[float, ...],
    coefs_of: Callable[[float], tuple[float, ...]],
    select: Select,
    start: Callable[[float, Job, int], float],
    rewalk: Callable[[Job], tuple[float, int]],
) -> Scan:
    """EASY's backfill scan bound to one run; both cores call what it returns.

    ``default_coefs`` are the ladder's time coefficients at the run's
    default β and ``coefs_of(beta)`` those of a job carrying its own.
    ``select`` is the policy call.  ``start(now, job, gear_index)``
    starts a job the scan took off the queue and returns its estimated
    end; ``rewalk(head)`` returns the head's ``(t_res, extra)`` over the
    current running set.

    ``scan(now, head, t_res, extra, free, version, cache)`` backfills
    behind ``head``, reserved at ``t_res`` with ``extra`` spare
    processors, given ``free`` idle processors and the estimates
    ``version``; it returns the cache to hand to the next call.
    Candidates come from the queue's pre-filter, a superset of the jobs
    passing the exact gates, and each is re-decided against the exact
    current state in arrival order, so the schedule is a full queue
    walk's.  The pre-filter mask is monotone in (free, extra, slack):
    positions enumerated behind the same head in the same queue
    generation at thresholds no smaller than the current ones, plus the
    slots appended since, still cover every admissible job.  So a clean
    scan returns its positions as the new cache, and a scan that started
    a job returns the cache it was given.
    """

    def scan(
        now: float,
        head: Job,
        t_res: float,
        extra: int,
        free: int,
        version: int,
        cache: ScanCache | None,
    ) -> ScanCache | None:
        if free == 0:
            return cache
        # Pre-filter slack, padded by a few ulps: the exact per-job gate
        # is `now + requested <= t_res`, whose rounding can differ from
        # the mask's `requested <= t_res - now` — the pad keeps the mask
        # a superset, and the exact form below re-decides every hit.
        slack = (t_res - now) + 1e-9 + 1e-12 * abs(t_res)
        head_id = head.job_id
        generation = queue.generation
        n_now = queue._n
        if (
            cache is not None
            and cache[0] == head_id
            and cache[1] == generation
            and free <= cache[2]
            and extra <= cache[3]
            and slack <= cache[4]
        ):
            positions, seen = cache[5], cache[6]
            if n_now > seen:
                positions = queue.extend_positions(positions, seen, n_now)
            env_free = cache[2]
            if free < env_free and len(positions) > 32:
                # Pruning by the current free gate is pure subsetting (the
                # walk re-checks `size <= free`) and keeps the walk short;
                # the pruned set covers free counts up to this one only,
                # so the envelope shrinks with it.  Small sets skip the
                # prune: the walk rejects faster than the gather, and they
                # keep the looser envelope.
                positions = queue.narrow_positions(positions, free)
                env_free = free
            env_extra, env_slack = cache[3], cache[4]
        else:
            positions = queue.backfill_candidates(free, extra, slack)
            env_free, env_extra, env_slack = free, extra, slack
        queue_len = queue._live
        mask_t_res = t_res
        mask_extra = extra
        accepted_any = False
        while True:
            slots = queue._jobs
            # tolist() converts a candidate array to native ints in one C
            # call; iterating the ndarray would box a numpy scalar per
            # candidate and slow every slot lookup.
            walk = positions if isinstance(positions, (list, tuple)) else positions.tolist()
            for index, position in enumerate(walk):
                job = slots[position]
                if job is None:
                    # Cached positions stay valid for a whole queue
                    # generation, and a scan that started a job keeps the
                    # cache it was given: the job at this position was
                    # backfilled since the positions were enumerated.
                    continue
                size = job.size
                if size > free:
                    continue
                if size <= extra:
                    # Fits beside the head's reservation at any duration.
                    lowest = 0
                elif not (now + job.requested_time <= t_res):
                    # Even the top gear (Coef == 1, the shortest stretch)
                    # ends past the shadow time, so no gear is feasible.
                    # Policies never return an infeasible gear in a
                    # may-skip context, so the decision is a foregone
                    # skip — spare the call.
                    continue
                else:
                    beta = job.beta
                    lowest = lowest_feasible(
                        now,
                        job.requested_time,
                        default_coefs if beta is None else coefs_of(beta),
                        t_res,
                    )
                gear_index = select(
                    job,
                    now - job.submit_time,
                    queue_len - 1,
                    (total_cpus - free) / total_cpus,
                    False,
                    lowest,
                )
                if gear_index < 0:
                    continue
                queue._kill(position, job)  # the walk proved the slot live
                queue_len -= 1
                free -= size
                estimated_end = start(now, job, gear_index)
                break
            else:
                if accepted_any:
                    return cache
                return (
                    head_id, generation, env_free, env_extra, env_slack,
                    positions, n_now, version, free,
                )  # fmt: skip
            if free == 0:
                return cache
            accepted_any = True
            # The reservation updates in O(1): the free processors the job
            # took and the estimate it added cancel exactly at t_res when
            # it ends by then; ending later, it consumes `size` of the
            # spare capacity.  Only a start stalled by a node wake-up can
            # end past t_res with `size` beyond the spare, moving t_res —
            # then rewalk.
            if estimated_end <= t_res:
                pass  # t_res and extra are unchanged
            elif size <= extra:
                extra -= size
            else:
                t_res, extra = rewalk(head)
            if t_res > mask_t_res or extra > mask_extra:
                # The wake-delayed start loosened the thresholds past the
                # enumeration, which is no longer a superset: recompute it
                # from the accepted position on.
                slack = (t_res - now) + 1e-9 + 1e-12 * abs(t_res)
                mask_t_res = t_res
                mask_extra = extra
                positions = queue.backfill_candidates(free, extra, slack, after=position)
            else:
                # Tightened only: the rest of the enumeration is still a
                # superset; a size gather drops most now-too-big jobs.
                rest = positions[index + 1 :]
                positions = queue.narrow_positions(rest, free) if len(rest) > 32 else rest

    return scan


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
        self._scan = backfill_scanner(
            self._queue,
            self._pool.total_cpus,
            self._default_coefs,
            self._coefficients,
            self._select,
            self._start_job,
            self._head_reservation,
        )
        self._scan_cache: ScanCache | None = None

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
            self._scan_cache = self._scan(
                now, head, t_res, extra, self._pool.free_cpus, self._est_version,
                self._scan_cache,
            )  # fmt: skip

    def _select(self, job: Job, wait: float, wq_size: int, utilization: float,
                must_schedule: bool, lowest: int) -> int:
        """The scan's policy call, reading ``self._policy`` every time.

        A controller instrument reacting to the ``JobStarted`` a
        backfilled start emits may swap or cap the policy mid-scan, and
        the rest of the scan must honour that.
        """
        return self._policy.select(job, wait, wq_size, utilization, must_schedule, lowest)

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
