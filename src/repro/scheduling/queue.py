"""Indexed FCFS wait queue with O(1) membership and vectorised scans.

The schedulers used to hold waiting jobs in a ``collections.deque``,
which made every backfill pass O(queue): materialising the candidate
list, probing each job's cheap admission gates in Python, and rebuilding
the deque after each pass that accepted anything.  On overloaded traces
the queue grows with the trace, so those per-pass scans are what turned
throughput superlinear (BENCH_2: SDSC collapses 3x from 5k to 50k jobs).

:class:`JobQueue` keeps jobs in arrival order in a tombstoned slot
array with parallel ``size`` / ``requested_time`` columns (numpy when
available), giving

* O(1) amortised ``append`` / ``popleft`` / ``remove`` (position map
  keyed by job id; removed slots become tombstones, compacted away once
  they outnumber live entries),
* :meth:`backfill_candidates`: the EASY admission pre-filter
  ``size <= free  AND  (size <= extra  OR  requested <= slack)``
  evaluated as one vectorised mask over the live slice instead of a
  Python loop over every waiting job.  Tombstones carry an impossible
  sentinel size, so they drop out of the mask for free.

The mask is a *superset* filter: callers re-verify every returned
candidate against the exact, current-state gates (see
:func:`repro.scheduling.easy.backfill_scanner`), so the vectorisation
cannot change a single scheduling decision — it only skips jobs the
exact scan would have skipped anyway.

The class implements the deque surface the schedulers use (``append``,
``popleft``, ``remove``, ``clear``, ``extend``, ``len``, iteration,
``[0]``), so it drops into :class:`~repro.scheduling.base.Scheduler`
unchanged.  Without numpy the same API works through pure-Python
fallbacks with identical semantics.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Iterator

if TYPE_CHECKING:  # imported for annotations only; avoids package cycles
    from repro.scheduling.job import Job

try:  # numpy is an optional accelerator, never a hard dependency
    import numpy as _np
except ImportError:  # pragma: no cover - exercised only without numpy
    _np = None

__all__ = ["JobQueue"]

#: Sentinel size for tombstoned slots: larger than any machine, so dead
#: slots always fail the ``size <= free`` gate and vanish from masks.
_DEAD_SIZE = 1 << 30

_MIN_CAPACITY = 64


class JobQueue:
    """Arrival-ordered wait queue backed by tombstoned parallel arrays."""

    __slots__ = (
        "_jobs", "_sizes", "_reqs", "_mask_buf", "_gate_buf", "_req_buf",
        "_head", "_n", "_live", "_pos", "_cap", "generation",
    )

    def __init__(self, jobs: Iterable[Job] = ()) -> None:
        self._cap = _MIN_CAPACITY
        self._jobs: list[Job | None] = [None] * self._cap
        if _np is not None:
            # int32/float32 columns halve the memory the mask streams
            # over.  Sizes are machine widths (< 2**30); requested times
            # round to float32, so mask consumers must pad their slack
            # threshold by a float32 ulp — see backfill_candidates.
            self._sizes = _np.full(self._cap, _DEAD_SIZE, dtype=_np.int32)
            self._reqs = _np.zeros(self._cap, dtype=_np.float32)
            self._mask_buf = _np.zeros(self._cap, dtype=bool)
            self._gate_buf = _np.zeros(self._cap, dtype=bool)
            self._req_buf = _np.zeros(self._cap, dtype=bool)
        else:  # pragma: no cover - exercised only without numpy
            self._sizes = [_DEAD_SIZE] * self._cap
            self._reqs = [0.0] * self._cap
        self._head = 0  # first live slot (== _n when empty)
        self._n = 0  # slots used so far
        self._live = 0
        self._pos: dict[int, int] = {}
        #: Bumped whenever positions are re-homed (compaction, clear);
        #: callers caching positions across passes key on it.
        self.generation = 0
        for job in jobs:
            self.append(job)

    # -- deque surface -----------------------------------------------------------
    def __len__(self) -> int:
        return self._live

    def __bool__(self) -> bool:
        return self._live > 0

    def __iter__(self) -> Iterator[Job]:
        for index in range(self._head, self._n):
            job = self._jobs[index]
            if job is not None:
                yield job

    def __getitem__(self, index: int) -> Job:
        if index != 0:
            raise IndexError("JobQueue only supports [0] (the FCFS head)")
        if self._live == 0:
            raise IndexError("queue is empty")
        head = self._jobs[self._head]
        assert head is not None
        return head

    def append(self, job: Job) -> None:
        if self._n == self._cap:
            self._grow_or_compact()
        elif self._n - self._head - self._live > max(64, self._live):
            # Tombstones outnumber live entries: compact eagerly so scan
            # windows stay proportional to the live queue.  Safe here —
            # appends only happen between scheduling passes, so no
            # positions handed to a scan are outstanding.
            self._compact()
        index = self._n
        self._jobs[index] = job
        self._sizes[index] = job.size
        self._reqs[index] = job.requested_time
        self._pos[job.job_id] = index
        self._n += 1
        self._live += 1

    def popleft(self) -> Job:
        if self._live == 0:
            raise IndexError("pop from an empty JobQueue")
        index = self._head
        job = self._jobs[index]
        assert job is not None
        self._kill(index, job)
        return job

    def remove(self, job: Job) -> None:
        """Remove ``job`` (matched by id), as ``deque.remove`` would."""
        index = self._pos.get(job.job_id)
        if index is None:
            raise ValueError(f"job {job.job_id} is not queued")
        victim = self._jobs[index]
        assert victim is not None
        self._kill(index, victim)

    def clear(self) -> None:
        self._head = 0
        self._n = 0
        self._live = 0
        self.generation += 1
        self._pos.clear()
        for index in range(len(self._jobs)):
            self._jobs[index] = None
        if _np is not None:
            self._sizes[:] = _DEAD_SIZE
        else:  # pragma: no cover - exercised only without numpy
            for index in range(len(self._sizes)):
                self._sizes[index] = _DEAD_SIZE

    def extend(self, jobs: Iterable[Job]) -> None:
        for job in jobs:
            self.append(job)

    # -- scan API -----------------------------------------------------------------
    @property
    def slots_used(self) -> int:
        """Slots allocated so far; new appends land at this position."""
        return self._n

    def job_at(self, position: int) -> Job:
        job = self._jobs[position]
        assert job is not None, f"position {position} is tombstoned"
        return job

    def backfill_candidates(self, free: int, extra: int, slack: float, after: int | None = None):
        """Positions of queued non-head jobs passing the admission pre-filter.

        Yields, in arrival order, every live position strictly after
        the head (or after ``after`` when given) whose job satisfies
        ``size <= free and (size <= extra or requested_time <= slack)``.
        Callers must re-verify each candidate against exact current
        thresholds — this is a superset filter, never a decision.
        Returns a re-iterable sequence (list or ndarray) so callers can
        cache it across passes whose thresholds only tightened.
        """
        lo = (self._head if after is None else after) + 1
        hi = self._n
        if lo >= hi or free <= 0:
            return ()
        if _np is not None and hi - lo >= 64:
            # Wide window: one vectorised mask beats touching every slot.
            # Preallocated boolean buffers keep it allocation-free up to
            # the final nonzero().
            sizes = self._sizes[lo:hi]
            mask = _np.less_equal(sizes, free, out=self._mask_buf[lo:hi])
            if extra < free:  # otherwise `size <= free` already implies the OR
                gate = _np.less_equal(sizes, extra, out=self._gate_buf[lo:hi])
                if slack >= 0.0:  # requested_time is always positive
                    # Inflate past one float32 ulp: the column is f32,
                    # so a nearest-rounded request must still compare <=
                    # whenever its exact value does (superset rule).
                    slack32 = _np.float32(slack * (1.0 + 2.4e-7))
                    gate |= _np.less_equal(
                        self._reqs[lo:hi], slack32, out=self._req_buf[lo:hi]
                    )
                mask &= gate
            positions = mask.nonzero()[0]
            if lo:
                positions += lo
            return positions
        # Narrow window (or no numpy): scan the slots directly — the
        # fixed cost of array temporaries would outweigh the filtering.
        jobs = self._jobs
        positions = []
        for index in range(lo, hi):
            job = jobs[index]
            if job is None:
                continue
            size = job.size
            if size <= free and (size <= extra or job.requested_time <= slack):
                positions.append(index)
        return positions

    def extend_positions(self, positions, seen: int, n_now: int):
        """Append the (unfiltered) positions ``seen..n_now`` to a cached set."""
        fresh = range(seen, n_now)
        if _np is not None and isinstance(positions, _np.ndarray):
            return _np.concatenate(
                [positions, _np.arange(seen, n_now, dtype=positions.dtype)]
            )
        return list(positions) + list(fresh)

    def narrow_positions(self, positions, free: int):
        """Drop positions whose job cannot fit in ``free`` processors.

        A cheap gather over the size column; callers still re-verify
        the survivors (this only prunes, never admits).
        """
        if _np is not None and isinstance(positions, _np.ndarray) and positions.size:
            return positions[self._sizes[positions] <= free]
        return positions

    def check_consistency(self) -> None:
        """Verify the tombstone/column/position bookkeeping (sanitizer hook).

        The vectorised backfill mask is only a faithful superset filter
        while the parallel columns mirror the slot array exactly: a live
        slot must carry its job's true size (and float32-rounded
        requested time) and a tombstone the impossible sentinel, the
        position map must be a perfect index of live slots, and the
        live count must equal the number of live slots in the window.
        O(slots); called only under :mod:`repro.analysis.sanitize`.
        """
        from repro.analysis.sanitize import require

        require(
            0 <= self._head <= self._n <= self._cap,
            f"slot window corrupt: head={self._head} n={self._n} cap={self._cap}",
        )
        live = 0
        for index in range(self._n):
            job = self._jobs[index]
            if job is None:
                require(
                    self._sizes[index] == _DEAD_SIZE,
                    f"tombstone at slot {index} lacks the sentinel size",
                )
                continue
            require(
                index >= self._head,
                f"live job {job.job_id} at slot {index} before the head {self._head}",
            )
            live += 1
            require(
                self._pos.get(job.job_id) == index,
                f"position map lost job {job.job_id} (slot {index})",
            )
            require(
                self._sizes[index] == job.size,
                f"size column drift at slot {index}: "
                f"{self._sizes[index]} != {job.size}",
            )
            expected_req = (
                float(_np.float32(job.requested_time))
                if _np is not None
                else job.requested_time
            )
            require(
                float(self._reqs[index]) == expected_req,
                f"requested-time column drift at slot {index}",
            )
        for index in range(self._n, self._cap):
            require(
                self._jobs[index] is None,
                f"unused slot {index} beyond n={self._n} holds a job",
            )
        require(
            live == self._live == len(self._pos),
            f"live-count drift: {self._live} recorded, {live} slots, "
            f"{len(self._pos)} positions",
        )

    # -- internals ----------------------------------------------------------------
    def _kill(self, index: int, job: Job) -> None:
        self._jobs[index] = None
        self._sizes[index] = _DEAD_SIZE
        del self._pos[job.job_id]
        self._live -= 1
        if index == self._head:
            self._advance_head()

    def _advance_head(self) -> None:
        head = self._head
        n = self._n
        jobs = self._jobs
        while head < n and jobs[head] is None:
            head += 1
        self._head = head

    def _grow_or_compact(self) -> None:
        """Make room: compact away tombstones, or double the capacity.

        Only ever called from :meth:`append`, which schedulers invoke
        between passes — positions handed out by
        :meth:`backfill_candidates` are never invalidated mid-pass.
        """
        if self._live <= self._cap // 2:
            self._compact()
            return
        new_cap = self._cap * 2
        if _np is not None:
            sizes = _np.full(new_cap, _DEAD_SIZE, dtype=_np.int32)
            sizes[: self._n] = self._sizes[: self._n]
            reqs = _np.zeros(new_cap, dtype=_np.float32)
            reqs[: self._n] = self._reqs[: self._n]
            self._sizes = sizes
            self._reqs = reqs
            self._mask_buf = _np.zeros(new_cap, dtype=bool)
            self._gate_buf = _np.zeros(new_cap, dtype=bool)
            self._req_buf = _np.zeros(new_cap, dtype=bool)
        else:  # pragma: no cover - exercised only without numpy
            self._sizes.extend([_DEAD_SIZE] * (new_cap - self._cap))
            self._reqs.extend([0.0] * (new_cap - self._cap))
        self._jobs.extend([None] * (new_cap - self._cap))
        self._cap = new_cap

    def _compact(self) -> None:
        """Rewrite live entries to the front, dropping tombstones."""
        self.generation += 1
        write = 0
        jobs = self._jobs
        sizes = self._sizes
        reqs = self._reqs
        pos = self._pos
        for read in range(self._head, self._n):
            job = jobs[read]
            if job is None:
                continue
            jobs[write] = job
            sizes[write] = sizes[read]
            reqs[write] = reqs[read]
            pos[job.job_id] = write
            write += 1
        for index in range(write, self._n):
            jobs[index] = None
            sizes[index] = _DEAD_SIZE
        self._head = 0
        self._n = write
