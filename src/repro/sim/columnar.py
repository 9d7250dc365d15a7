"""The columnar engine lane: a fused EASY/FCFS core over array state.

The reference core (:mod:`repro.scheduling.base`) is event-driven and
object-per-thing: an :class:`~repro.sim.engine.Engine` dispatching
handler callbacks, a ``_RunningJob`` object and an
:class:`~repro.sim.events.EventHandle` per start, a
:class:`~repro.scheduling.job.JobOutcome` dataclass per completion and
a :class:`~repro.core.frequency_policy.SchedulingContext` per decision.
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
* per-decision policy logic (the paper's BSLD-threshold walk, the
  fixed-gear baselines) is inlined over flat coefficient tables instead
  of going through ``SchedulingContext``/``select_gear``;
* per-job results land in preallocated numpy columns and come back as
  an :class:`~repro.scheduling.columns.OutcomeColumns` store — the
  dict-of-dataclass view is reconstructed lazily, and aggregate queries
  reduce over the arrays without materialising a single outcome.

Bit-exactness is the contract (the golden traces and the lane-vs-lane
differentials enforce it), so every floating-point expression here is
the *same expression in the same order* as the reference core's:
``start_job``'s end-time arithmetic, the energy segment accumulation on
each finish and the pre-filtered backfill scan (including its
memo/cache keys) all mirror :mod:`repro.scheduling.base` /
:mod:`repro.scheduling.easy` line for line.  The head-reservation walk
(:func:`~repro.scheduling.easy.head_reservation`) and the wait-queue
(:class:`~repro.scheduling.queue.JobQueue`) are reused outright, so
they are shared code, not copies.

Coverage: EASY and FCFS scheduling under the ``nodvfs``, ``fixed`` and
``bsld`` policy kinds, no boost, no sleep, no timeline, no instruments,
no validate/sanitize mode.  :func:`try_run_columnar` returns ``None``
for anything else and the lane falls back to the reference core.
"""

from __future__ import annotations

import gc
from bisect import bisect_left, insort
from heapq import heappop, heappush
from typing import TYPE_CHECKING, Any

try:  # numpy is an optional accelerator, never a hard dependency
    import numpy as _np
except ImportError:  # pragma: no cover - exercised only without numpy
    _np = None

from repro.analysis.sanitize import enabled as sanitize_enabled
from repro.core.frequency_policy import BsldThresholdPolicy, FixedGearPolicy
from repro.power.energy import EnergyAccounting
from repro.power.time_model import BetaTimeModel
from repro.registry import POWER_MODELS
from repro.scheduling.columns import OutcomeColumns
from repro.scheduling.easy import head_reservation
from repro.scheduling.job import Job, validate_jobs
from repro.scheduling.queue import JobQueue
from repro.scheduling.result import SimulationResult
from repro.sim.engine import SimulationError

if TYPE_CHECKING:  # imported for annotations only; avoids package cycles
    from repro.api import Simulation

__all__ = ["try_run_columnar"]

_SUPPORTED_SCHEDULERS = frozenset({"easy", "fcfs"})
_SUPPORTED_POLICY_KINDS = frozenset({"nodvfs", "fixed", "bsld"})


def _covers(simulation: Simulation) -> bool:
    """Whether the fused core reproduces this run exactly.

    Anything outside this set (validate/sanitize modes, boost, sleep,
    timelines, instruments, the conservative scheduler, the ``util``
    policy) runs on the reference core via the lane fallback.
    """
    spec = simulation.spec
    return (
        not simulation.validate
        and not simulation.sanitize
        and not sanitize_enabled()
        and spec.scheduler in _SUPPORTED_SCHEDULERS
        and spec.policy.kind in _SUPPORTED_POLICY_KINDS
        and spec.policy.boost_trigger is None
        and spec.sleep is None
        and not spec.record_timeline
        and not spec.instruments
    )


def try_run_columnar(simulation: Simulation) -> SimulationResult | None:
    """Run ``simulation`` on the fused core, or ``None`` if not covered."""
    if _np is None:
        return None
    if not _covers(simulation):
        return None
    jobs = [job.clamped() for job in simulation.jobs]
    if not jobs:
        return None  # the trivial empty trace stays on the reference core
    return _run_columnar(simulation, jobs)


def _run_columnar(simulation: Simulation, jobs: list[Job]) -> SimulationResult:
    spec = simulation.spec
    machine = simulation.machine
    total_cpus = machine.total_cpus
    validate_jobs(jobs, total_cpus)
    n = len(jobs)

    gears = machine.gears
    time_model = BetaTimeModel.for_gear_set(gears, spec.beta)
    policy = spec.policy.build()
    policy.bind(gears, time_model)
    power_model = POWER_MODELS.get(spec.power_model)(gears)
    accounting = EnergyAccounting(power_model)

    ladder = gears.ascending()
    n_gears = len(ladder)
    freqs = [gear.frequency for gear in ladder]
    top_idx = ladder.index(gears.top)
    coefficient = time_model.coefficient
    # The exact memoised values the reference resolves per gear — both
    # the policy's _default_coefs and EASY's _default_coef_by_frequency
    # come from the same coefficient() calls.
    default_coefs = [coefficient(frequency) for frequency in freqs]
    active_power = [accounting._active_power[gear] for gear in ladder]

    # -- inlined policy decisions ------------------------------------------------
    # select_must: the queue head (must_schedule=True, always feasible).
    # select_backfill: a backfill candidate; `gated` is True when the
    # per-gear admission test applies (size > extra), in which case the
    # caller has already verified the top gear fits (Coef(fmax) == 1).
    # Returns a ladder index, or -1 for "skip this candidate".
    if isinstance(policy, BsldThresholdPolicy):
        bsld_threshold = policy.bsld_threshold
        wq_threshold = policy.wq_threshold
        time_threshold = policy.bsld_time_threshold
        strict_top = policy.strict_top_backfill

        def select_must(job: Job, wait: float, wq_size: int) -> int:
            if wq_threshold is not None and wq_size > wq_threshold:
                return top_idx
            requested = job.requested_time
            denominator = time_threshold if time_threshold > requested else requested
            bsld_top = (wait + requested) / denominator
            if bsld_top >= bsld_threshold and bsld_top >= 1.0:
                return top_idx
            beta = job.beta
            for index in range(n_gears):
                if index == top_idx:
                    return top_idx
                if beta is None:
                    coef = default_coefs[index]
                else:
                    coef = coefficient(freqs[index], beta)
                bsld = (wait + requested * coef) / denominator
                if bsld < 1.0:
                    bsld = 1.0
                if bsld < bsld_threshold:
                    return index
            return top_idx  # pragma: no cover - the loop always hits top

        def select_backfill(
            job: Job, wait: float, wq_size: int, gated: bool, now: float, t_res: float
        ) -> int:
            requested = job.requested_time
            beta = job.beta
            denominator = time_threshold if time_threshold > requested else requested
            if wq_threshold is not None and wq_size > wq_threshold:
                start = top_idx
            else:
                start = 0
                # Predicted BSLD is monotone non-increasing in frequency:
                # if even Ftop misses the threshold, no reduced gear can
                # pass (and the top gear is always feasible when gated —
                # the caller pre-verified now + requested <= t_res).
                bsld_top = (wait + requested) / denominator
                if bsld_top >= bsld_threshold and bsld_top >= 1.0:
                    return -1 if strict_top else top_idx
            for index in range(start, n_gears):
                if beta is None:
                    coef = default_coefs[index]
                else:
                    coef = coefficient(freqs[index], beta)
                if gated and not (now + requested * coef <= t_res):
                    continue
                if index == top_idx and not strict_top:
                    return top_idx
                bsld = (wait + requested * coef) / denominator
                if bsld < 1.0:
                    bsld = 1.0
                if bsld < bsld_threshold:
                    return index
            return -1

    else:
        assert isinstance(policy, FixedGearPolicy)
        fixed_idx = ladder.index(policy._gear)
        fixed_frequency = freqs[fixed_idx]
        fixed_coef = default_coefs[fixed_idx]

        def select_must(job: Job, wait: float, wq_size: int) -> int:
            return fixed_idx

        def select_backfill(
            job: Job, wait: float, wq_size: int, gated: bool, now: float, t_res: float
        ) -> int:
            if gated:
                beta = job.beta
                if beta is None:
                    coef = fixed_coef
                else:
                    coef = coefficient(fixed_frequency, beta)
                if not (now + job.requested_time * coef <= t_res):
                    return -1
            return fixed_idx

    # -- per-run state ------------------------------------------------------------
    queue = JobQueue()
    free = total_cpus
    # (estimated_end, job_id, size), sorted — the reservation profile,
    # maintained with the exact insort/bisect discipline of the
    # reference so the head-reservation walk sees identical tuples.
    estimates: list[tuple[float, int, int]] = []
    est_version = 0
    # Finish events: (actual_end, seq, row, job, gear_idx, start, estimate_entry).
    # seq is monotone, so heap ties at equal end times pop in schedule
    # order — the reference engine's (time, kind, seq) tie-break, with
    # arrivals-vs-finishes ordering handled by the strict `<` merge below.
    heap: list[tuple[float, int, int, Job, int, float, tuple[float, int, int]]] = []
    seq = n
    reservation_memo: tuple[tuple[int, int, int], tuple[float, int]] | None = None
    # The last clean (acceptance-free) scan's candidates with the
    # thresholds they were enumerated at, plus the exact machine state
    # (est_version, free) the scan rejected them under:
    # (head_id, generation, free0, extra0, slack0, positions, seen,
    #  est_version_at_scan, free_at_scan).
    # The reference caches on exact (head, free, est_version,
    # generation) equality; this cache is a strict generalisation built
    # on the same superset argument: the pre-filter mask is monotone in
    # (free, extra, slack), so whenever the current thresholds are all
    # <= the cached ones (same head slot, same generation), every job
    # passing the current gates already passed the cached mask — the
    # cached positions plus the unfiltered arrival tail remain a valid
    # superset, and every candidate is still re-decided against exact
    # current state, so no scheduling decision can change.
    scan_cache: tuple[int, int, int, int, float, Any, int, int, int] | None = None

    # Finished outcomes buffer in plain lists (appends are cheaper than
    # 50k individual numpy scalar stores) and scatter into the columns
    # once, after the event loop.
    fin_rows: list[int] = []
    fin_start: list[float] = []
    fin_end: list[float] = []
    fin_gear: list[int] = []
    fin_energy: list[float] = []
    row_of = {job.job_id: row for row, job in enumerate(jobs)}
    submit = [job.submit_time for job in jobs]
    comp_energy = 0.0
    busy_cpu_seconds = 0.0

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
        if actual_end > estimated:  # max(estimated, actual_end)
            estimated = actual_end
        entry = (estimated, job.job_id, job.size)
        insort(estimates, entry)
        est_version += 1
        heappush(heap, (actual_end, seq, row_of[job.job_id], job, gear_idx, now, entry))
        seq += 1
        return estimated

    def start_heads(now: float) -> None:
        """The shared FCFS prefix of every pass (``Scheduler._start_heads``)."""
        while queue._live:
            head = queue._jobs[queue._head]
            assert head is not None
            if head.size > free:
                break
            gear_idx = select_must(head, now - head.submit_time, queue._live - 1)
            queue.popleft()
            start_job(now, head, gear_idx)

    def backfill_scan(now: float, head: Job, t_res: float, extra: int) -> None:
        """Mirror of ``EasyBackfilling._backfill_scan`` with inlined decisions."""
        nonlocal scan_cache, reservation_memo, free, seq, est_version
        free_now = free
        if free_now == 0:
            return
        slack = (t_res - now) + 1e-9 + 1e-12 * abs(t_res)
        head_id = head.job_id
        generation = queue.generation
        n_now = queue._n
        cache = scan_cache
        if (
            cache is not None
            and cache[0] == head_id
            and cache[1] == generation
            and free_now <= cache[2]
            and extra <= cache[3]
            and slack <= cache[4]
        ):
            positions, seen = cache[5], cache[6]
            if n_now > seen:
                positions = queue.extend_positions(positions, seen, n_now)
            if free_now < cache[2] and len(positions) > 32:
                # The reused superset was enumerated at a looser free
                # gate; pruning by the current one is pure subsetting
                # (the scan re-checks ``size <= free`` anyway) and keeps
                # the candidate walk short.  The pruned set is only a
                # superset for free <= free_now, so the re-store
                # envelope shrinks with it.  Small sets skip the prune:
                # the walk rejects faster than the gather, and the
                # un-pruned set keeps the looser (better) envelope.
                positions = queue.narrow_positions(positions, free_now)
                envelope = (free_now, cache[3], cache[4])
            else:
                # A clean scan re-stores under the cached envelope: that
                # is what the positions were actually enumerated at.
                envelope = (cache[2], cache[3], cache[4])
        else:
            positions = queue.backfill_candidates(free_now, extra, slack)
            envelope = (free_now, extra, slack)
        slots = queue._jobs
        queue_len = queue._live
        mask_t_res = t_res
        mask_extra = extra
        accepted_any = False
        size = 0
        position = -1
        started_estimate = 0.0
        while True:
            accepted_index = None
            # tolist() converts the whole candidate array to native ints
            # in one C call; iterating the ndarray directly would box a
            # numpy scalar per candidate and slow every slot lookup.
            walk = positions.tolist() if isinstance(positions, _np.ndarray) else positions
            for index, position in enumerate(walk):
                job = slots[position]
                if job is None:  # pragma: no cover - defensive
                    continue
                size = job.size
                if size > free_now:
                    continue
                if size <= extra:
                    gated = False
                elif not (now + job.requested_time <= t_res):
                    continue
                else:
                    gated = True
                gear_idx = select_backfill(
                    job, now - job.submit_time, queue_len - 1, gated, now, t_res
                )
                if gear_idx < 0:
                    continue
                # remove_at inlined to its _kill core: the walk already
                # proved the slot live.
                queue._kill(position, job)
                queue_len -= 1
                free_now -= size
                # start_job inlined: this accept runs ~once per job on
                # backfill-heavy traces, and the call overhead shows.
                beta = job.beta
                if beta is None:
                    coef = default_coefs[gear_idx]
                else:
                    coef = coefficient(freqs[gear_idx], beta)
                free -= size
                actual_end = now + job.runtime * coef
                started_estimate = now + job.requested_time * coef
                if actual_end > started_estimate:  # max(estimated, actual_end)
                    started_estimate = actual_end
                entry = (started_estimate, job.job_id, size)
                insort(estimates, entry)
                est_version += 1
                heappush(
                    heap,
                    (actual_end, seq, row_of[job.job_id], job, gear_idx, now, entry),
                )
                seq += 1
                accepted_index = index
                break
            if accepted_index is None:
                if not accepted_any:
                    free0, extra0, slack0 = envelope
                    scan_cache = (
                        head_id, generation, free0, extra0, slack0, positions,
                        n_now, est_version, free_now,
                    )
                return
            if free_now == 0:
                return
            accepted_any = True
            if started_estimate <= t_res:
                pass  # t_res and extra are unchanged
            elif size <= extra:
                extra -= size
            else:
                # The acceptance bumped est_version, so the memo cannot
                # hit: walk, and leave the result for the next pass.
                t_res, extra = head_reservation(estimates, free, head)
                reservation_memo = ((head_id, free, est_version), (t_res, extra))
            if t_res > mask_t_res or extra > mask_extra:
                slack = (t_res - now) + 1e-9 + 1e-12 * abs(t_res)
                mask_t_res = t_res
                mask_extra = extra
                positions = queue.backfill_candidates(
                    free_now, extra, slack, after=int(position)
                )
            else:
                rest = positions[accepted_index + 1 :]
                positions = (
                    queue.narrow_positions(rest, free_now) if len(rest) > 32 else rest
                )
            slots = queue._jobs

    if spec.scheduler == "easy":

        def run_pass(now: float) -> None:
            """Mirror of ``EasyBackfilling._schedule_pass`` (validate off),
            with the shared FCFS head loop inlined."""
            while queue._live:
                head = queue._jobs[queue._head]
                assert head is not None
                if head.size > free:
                    break
                gear_idx = select_must(head, now - head.submit_time, queue._live - 1)
                queue.popleft()
                start_job(now, head, gear_idx)
            queue_len = queue._live
            if queue_len == 0 or free == 0 or queue_len == 1:
                return
            head = queue._jobs[queue._head]
            assert head is not None
            # The memo check inlined (one per scheduling pass); misses
            # run the shared walk.
            nonlocal reservation_memo
            key = (head.job_id, free, est_version)
            memo = reservation_memo
            if memo is not None and memo[0] == key:
                t_res, extra = memo[1]
            else:
                t_res, extra = head_reservation(estimates, free, head)
                reservation_memo = (key, (t_res, extra))
            backfill_scan(now, head, t_res, extra)

        def arrival_pass(now: float, job: Job) -> None:
            """An arrival-triggered pass, skipped when provably a no-op.

            Rejections only harden as ``now`` advances under fixed
            (free, estimates, head): the slack gate tightens, waits grow
            so predicted BSLDs grow, and ``size > free`` is
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
    # points that makes saturated stretches cheap.
    arrival_index = 0
    queue_append = queue.append
    fin_rows_append = fin_rows.append
    fin_start_append = fin_start.append
    fin_end_append = fin_end.append
    fin_gear_append = fin_gear.append
    fin_energy_append = fin_energy.append
    was_enabled = gc.isenabled()
    if was_enabled:
        gc.disable()
    try:
        while True:
            if heap:
                next_finish = heap[0][0]
                if arrival_index < n and submit[arrival_index] < next_finish:
                    now = submit[arrival_index]
                    arrived = jobs[arrival_index]
                    queue_append(arrived)
                    arrival_index += 1
                    if free == 0:
                        while arrival_index < n and submit[arrival_index] < next_finish:
                            queue_append(jobs[arrival_index])
                            arrival_index += 1
                    else:
                        arrival_pass(now, arrived)
                    continue
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
                run_pass(now)
            elif arrival_index < n:
                now = submit[arrival_index]
                arrived = jobs[arrival_index]
                queue_append(arrived)
                arrival_index += 1
                arrival_pass(now, arrived)
            else:
                break
    finally:
        if was_enabled:
            gc.enable()

    # -- finalisation (mirror of ``Scheduler.finalize``) ---------------------------
    rows = _np.array(fin_rows, dtype=_np.int64)
    out_start = _np.empty(n)
    out_finish = _np.empty(n)
    out_gear = _np.empty(n, dtype=_np.int64)
    out_energy = _np.empty(n)
    out_start[rows] = fin_start
    out_finish[rows] = fin_end
    out_gear[rows] = fin_gear
    out_energy[rows] = fin_energy
    out_reduced = out_gear != top_idx
    ids = _np.fromiter((job.job_id for job in jobs), dtype=_np.int64, count=n)
    order = _np.argsort(ids, kind="stable")
    jobs_by_id = tuple(jobs[trace_row] for trace_row in order.tolist())
    outcomes = OutcomeColumns(
        jobs_by_id,
        ladder,
        out_start[order],
        out_finish[order],
        out_gear[order],
        out_energy[order],
        out_reduced[order],
    )
    span_start = jobs[0].submit_time
    span_end = float(out_finish.max())
    accounting._computational = comp_energy
    accounting._busy_cpu_seconds = busy_cpu_seconds
    accounting._jobs = n
    report = accounting.report(total_cpus, span_start, span_end)
    return SimulationResult(
        machine=machine,
        policy=policy.describe(),
        outcomes=outcomes,
        energy=report,
        events_processed=2 * n,
        timeline=(),
    )
