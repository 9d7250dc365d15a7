"""Piecewise-constant availability profile of free processors over time.

This is the general allocation-search structure behind
``findAllocation`` / ``TryToFindBackfilledAllocation`` in the paper's
pseudocode.  The fast EASY implementation in
:mod:`repro.scheduling.easy` uses an O(1) specialisation; this full
profile backs conservative backfilling, where every queued job holds a
reservation, and the *reference* schedulers used to cross-validate the
fast ones in tests.

The profile is a step function ``free(t)`` held as two parallel flat
lists: ``_times[i]`` starts segment ``i``, which spans to
``_times[i+1]`` (the last extends to infinity) with ``_free[i]``
processors available.  Every operation is a bisect plus at most an O(n)
walk in the breakpoint count.  ``release`` merges equal-free neighbours and
``advance_origin`` drops the past the simulation clock has passed, so
the breakpoint count follows the *live* reservations, not how many the
profile has ever seen.

Why no index: the profiles conservative backfilling plans on are
small.  Under DVFS(2, NO) the largest per-pass copy holds 95
breakpoints at SDSC-1k and 278 at SDSC-5k, and at that size a bisect
plus a list walk beats a blocked index (breakpoints in blocks of 64
with lazy per-block offsets, min/max summaries and eager merging): the
index ran conservative DVFS(2, NO) 2.4x slower on SDSC-5k (median
15.3 s vs 6.4 s over 5 alternating pairs on 2 vCPUs) and 2.2x slower
on CTC-5k (2.4 s vs 1.1 s), with byte-identical schedules.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Iterator

__all__ = ["AvailabilityProfile"]


class AvailabilityProfile:
    """Flat breakpoint-list availability profile (see module docstring)."""

    __slots__ = ("_total", "_times", "_free")

    def __init__(self, total_cpus: int, origin: float = 0.0) -> None:
        if total_cpus <= 0:
            raise ValueError(f"profile needs at least 1 CPU, got {total_cpus}")
        self._total = total_cpus
        self._times: list[float] = [origin]
        self._free: list[int] = [total_cpus]

    # -- introspection -------------------------------------------------------
    @property
    def total_cpus(self) -> int:
        return self._total

    @property
    def origin(self) -> float:
        return self._times[0]

    def segments(self) -> Iterator[tuple[float, float, int]]:
        """Yield ``(start, end, free)`` triples; the last end is ``inf``."""
        for i, start in enumerate(self._times):
            end = self._times[i + 1] if i + 1 < len(self._times) else float("inf")
            yield (start, end, self._free[i])

    def breakpoint_count(self) -> int:
        """Number of segment boundaries currently held (memory proxy)."""
        return len(self._times)

    def free_at(self, time: float) -> int:
        """Free processors at ``time`` (clamped to the origin on the left)."""
        index = bisect_right(self._times, time) - 1
        if index < 0:
            index = 0
        return self._free[index]

    def min_free(self, start: float, end: float) -> int:
        """Minimum free count over ``[start, end)``."""
        if end < start:
            raise ValueError(f"interval end {end} precedes start {start}")
        if end == start:
            return self.free_at(start)
        times = self._times
        free = self._free
        first = max(0, bisect_right(times, start) - 1)
        lowest = self._total
        for i in range(first, len(times)):
            if times[i] >= end:
                break
            if free[i] < lowest:
                lowest = free[i]
        return lowest

    def check_consistency(self) -> None:
        """Verify the profile's structural invariants (sanitizer hook).

        Checks that the time and free columns are aligned and non-empty,
        that breakpoints strictly increase, and that every segment
        holds ``0 <= free <= total``.  Equal-free neighbours are legal:
        only ``release`` merges them.  O(breakpoints); called only under
        :mod:`repro.analysis.sanitize`.
        """
        from repro.analysis.sanitize import require

        times = self._times
        free = self._free
        require(len(times) >= 1, "profile lost its origin segment")
        require(
            len(times) == len(free),
            f"time/free columns disagree ({len(times)} vs {len(free)} entries)",
        )
        for i, time in enumerate(times):
            require(
                i == 0 or time > times[i - 1],
                f"breakpoints not strictly increasing at segment {i} "
                f"({time} after {times[i - 1]})",
            )
            require(
                0 <= free[i] <= self._total,
                f"free count {free[i]} outside [0, {self._total}] at t={time}",
            )

    # -- mutation --------------------------------------------------------------
    def _breakpoint(self, time: float) -> int:
        """Ensure a segment boundary at ``time``; return its segment index."""
        index = bisect_right(self._times, time) - 1
        if index < 0:
            raise ValueError(f"time {time} precedes the profile origin {self._times[0]}")
        if self._times[index] == time:
            return index
        self._times.insert(index + 1, time)
        self._free.insert(index + 1, self._free[index])
        return index + 1

    def reserve(self, start: float, end: float, size: int) -> None:
        """Consume ``size`` processors over ``[start, end)``.

        Raises ``ValueError`` if any touched segment would go negative;
        callers are expected to have verified fit via :meth:`min_free`
        or :meth:`find_start`.
        """
        if size <= 0:
            raise ValueError(f"reservation size must be positive, got {size}")
        if end <= start:
            raise ValueError(f"reservation interval [{start}, {end}) is empty")
        first = self._breakpoint(start)
        last = self._breakpoint(end)  # segment starting at `end` keeps its value
        for i in range(first, last):
            if self._free[i] < size:
                raise ValueError(
                    f"over-reservation: segment [{self._times[i]}, ...) has "
                    f"{self._free[i]} free, requested {size}"
                )
        for i in range(first, last):
            self._free[i] -= size

    def release(self, start: float, end: float, size: int) -> None:
        """Undo a :meth:`reserve` over exactly the same interval."""
        if size <= 0:
            raise ValueError(f"release size must be positive, got {size}")
        if end <= start:
            raise ValueError(f"release interval [{start}, {end}) is empty")
        first = self._breakpoint(start)
        last = self._breakpoint(end)
        for i in range(first, last):
            if self._free[i] + size > self._total:
                raise ValueError(
                    f"over-release: segment [{self._times[i]}, ...) would hold "
                    f"{self._free[i] + size} of {self._total} CPUs"
                )
        for i in range(first, last):
            self._free[i] += size
        self._compact()

    def advance_origin(self, time: float) -> None:
        """Drop history before ``time`` (the simulation clock moved on)."""
        index = bisect_right(self._times, time) - 1
        if index <= 0:
            return
        del self._times[:index]
        del self._free[:index]
        self._times[0] = time

    # -- search ------------------------------------------------------------------
    def find_start(self, earliest: float, duration: float, size: int) -> float:
        """Earliest ``t >= earliest`` with ``free >= size`` over ``[t, t+duration)``.

        Mirrors ``findAllocation`` in the paper.  Always succeeds for
        ``size <= total_cpus`` because the final segment of the profile
        has every reservation expired.
        """
        if size <= 0:
            raise ValueError(f"size must be positive, got {size}")
        if size > self._total:
            raise ValueError(f"size {size} exceeds machine capacity {self._total}")
        if duration < 0.0:
            raise ValueError(f"duration must be non-negative, got {duration}")
        times = self._times
        free = self._free
        if earliest < times[0]:
            earliest = times[0]
        i = max(0, bisect_right(times, earliest) - 1)
        n = len(times)
        while True:
            while i < n and free[i] < size:
                i += 1
            if i >= n:
                raise AssertionError(
                    "unreachable: the final profile segment must satisfy any "
                    "size <= total_cpus"
                )
            candidate = times[i]
            if candidate < earliest:
                candidate = earliest
            end = candidate + duration
            j = i
            feasible = True
            while j < n and times[j] < end:
                if free[j] < size:
                    feasible = False
                    break
                j += 1
            if feasible:
                return candidate
            i = j  # the violating segment; outer loop skips past it

    def fits_at(self, start: float, duration: float, size: int) -> bool:
        """Whether ``size`` CPUs are free over ``[start, start+duration)``."""
        if duration < 0.0:
            raise ValueError(f"duration must be non-negative, got {duration}")
        if size <= 0 or size > self._total:
            return False
        if duration == 0.0:
            return self.free_at(start) >= size
        return self.min_free(start, start + duration) >= size

    # -- housekeeping ---------------------------------------------------------------
    def _compact(self) -> None:
        """Merge adjacent segments with equal free counts."""
        if len(self._times) <= 1:
            return
        times = [self._times[0]]
        free = [self._free[0]]
        for t, f in zip(self._times[1:], self._free[1:], strict=True):
            if f == free[-1]:
                continue
            times.append(t)
            free.append(f)
        self._times = times
        self._free = free

    def copy(self) -> "AvailabilityProfile":
        clone = AvailabilityProfile.__new__(AvailabilityProfile)
        clone._total = self._total
        clone._times = list(self._times)
        clone._free = list(self._free)
        return clone

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        parts = ", ".join(f"[{s:g},{'inf' if e == float('inf') else format(e, 'g')}):{f}"
                          for s, e, f in self.segments())
        return f"AvailabilityProfile({parts})"
