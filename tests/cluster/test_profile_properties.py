"""Property-based invariants for :class:`AvailabilityProfile`.

The profile is the ground truth behind both reference schedulers and
the incrementally-maintained conservative profile, so its invariants
are load-bearing for every differential test in the suite:

* the free count of every segment stays within ``[0, total_cpus]``;
* segment start times are strictly increasing;
* ``reserve``/``release`` round-trips restore the profile as a step
  function (segmentation may differ by no-op breakpoints, the function
  may not);
* ``find_start`` returns the earliest feasible slot;
* compaction keeps the breakpoint count bounded by the number of
  *live* reservations — not by how many the profile has ever seen.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster.profile import AvailabilityProfile

TOTAL_CPUS = 16


@st.composite
def reservation_plan(draw, max_ops: int = 12):
    """A list of (start, duration, size) requests over a small horizon."""
    n = draw(st.integers(min_value=1, max_value=max_ops))
    ops = []
    for _ in range(n):
        start = draw(st.floats(min_value=0.0, max_value=500.0, allow_nan=False))
        duration = draw(st.floats(min_value=0.001, max_value=500.0, allow_nan=False))
        size = draw(st.integers(min_value=1, max_value=TOTAL_CPUS))
        ops.append((start, duration, size))
    return ops


def assert_invariants(profile: AvailabilityProfile) -> None:
    times = [start for start, _end, _free in profile.segments()]
    frees = [free for _start, _end, free in profile.segments()]
    assert all(0 <= free <= profile.total_cpus for free in frees), frees
    assert all(a < b for a, b in zip(times, times[1:], strict=False)), times


def as_step_function(profile: AvailabilityProfile, probes) -> list[int]:
    return [profile.free_at(t) for t in probes]


def apply_feasible(profile: AvailabilityProfile, ops):
    """Reserve every op that fits; return the applied sub-plan."""
    applied = []
    for start, duration, size in ops:
        if profile.min_free(start, start + duration) >= size:
            profile.reserve(start, start + duration, size)
            applied.append((start, duration, size))
        assert_invariants(profile)
    return applied


@given(reservation_plan())
@settings(max_examples=60)
def test_reserve_keeps_invariants(ops):
    profile = AvailabilityProfile(TOTAL_CPUS)
    apply_feasible(profile, ops)
    assert_invariants(profile)


@given(reservation_plan())
@settings(max_examples=60)
def test_reserve_release_round_trip_restores_profile(ops):
    profile = AvailabilityProfile(TOTAL_CPUS)
    applied = apply_feasible(profile, ops)
    # Probe at every breakpoint seen mid-flight plus the op boundaries.
    probes = sorted(
        {start for start, _d, _s in applied}
        | {start + duration for start, duration, _s in applied}
        | {t for t, _e, _f in profile.segments()}
    )
    for start, duration, size in reversed(applied):
        profile.release(start, start + duration, size)
        assert_invariants(profile)
    assert as_step_function(profile, probes) == [TOTAL_CPUS] * len(probes)


@given(reservation_plan())
@settings(max_examples=40)
def test_partial_release_matches_fresh_profile(ops):
    """Releasing one reservation equals never having made it."""
    profile = AvailabilityProfile(TOTAL_CPUS)
    applied = apply_feasible(profile, ops)
    if not applied:
        return
    # Rebuild without the first applied op; releasing it from the full
    # profile must give the same step function.
    start, duration, size = applied[0]
    profile.release(start, start + duration, size)
    rebuilt = AvailabilityProfile(TOTAL_CPUS)
    for s, d, z in applied[1:]:
        rebuilt.reserve(s, s + d, z)
    probes = sorted(
        {s for s, _d, _z in applied}
        | {s + d for s, d, _z in applied}
        | {t for t, _e, _f in profile.segments()}
        | {t for t, _e, _f in rebuilt.segments()}
    )
    assert as_step_function(profile, probes) == as_step_function(rebuilt, probes)


@given(reservation_plan())
@settings(max_examples=40)
def test_min_free_consistent_with_free_at(ops):
    profile = AvailabilityProfile(TOTAL_CPUS)
    apply_feasible(profile, ops)
    for start, end, free in profile.segments():
        assert profile.free_at(start) == free
        if end != float("inf"):
            assert profile.min_free(start, end) == free


@given(reservation_plan(), st.integers(min_value=1, max_value=TOTAL_CPUS),
       st.floats(min_value=0.0, max_value=400.0, allow_nan=False),
       st.floats(min_value=0.0, max_value=400.0, allow_nan=False))
@settings(max_examples=60)
def test_find_start_returns_earliest_feasible_slot(ops, size, earliest, duration):
    profile = AvailabilityProfile(TOTAL_CPUS)
    apply_feasible(profile, ops)
    start = profile.find_start(earliest, duration, size)
    assert start >= earliest
    assert profile.fits_at(start, duration, size)
    # Minimality at every profile breakpoint before the answer.
    for t, _end, _free in profile.segments():
        if earliest <= t < start:
            assert not profile.fits_at(t, duration, size)
    if earliest < start:
        assert not profile.fits_at(earliest, duration, size)


def test_over_release_rejected():
    profile = AvailabilityProfile(TOTAL_CPUS)
    profile.reserve(0.0, 10.0, 4)
    with pytest.raises(ValueError, match="over-release"):
        profile.release(0.0, 10.0, 5)


def test_over_reserve_rejected():
    profile = AvailabilityProfile(TOTAL_CPUS)
    profile.reserve(0.0, 10.0, TOTAL_CPUS)
    with pytest.raises(ValueError, match="over-reservation"):
        profile.reserve(5.0, 6.0, 1)


# -- compaction bounds: memory follows live reservations, not history ----------


def test_breakpoint_count_bounded_by_live_reservations():
    """A long reserve/release/advance stream must not accumulate breakpoints.

    Every live reservation contributes at most two boundaries; release
    merges equal neighbours and ``advance_origin`` drops the past, so
    the count must track the live set even after thousands of completed
    reservations.
    """
    import random

    rng = random.Random(4)
    profile = AvailabilityProfile(TOTAL_CPUS)
    live = []
    clock = 0.0
    for step in range(4000):
        origin = profile.origin
        if rng.random() < 0.6 or not live:
            start = clock + rng.uniform(0.0, 50.0)
            end = start + rng.uniform(0.5, 80.0)
            size = rng.randint(1, TOTAL_CPUS)
            if profile.min_free(start, end) >= size:
                profile.reserve(start, end, size)
                live.append((start, end, size))
        else:
            start, end, size = live.pop(rng.randrange(len(live)))
            start = max(start, origin)
            if start < end:
                profile.release(start, end, size)
        if rng.random() < 0.3:
            clock += rng.uniform(0.0, 10.0)
            horizon = min((end for _s, end, _z in live), default=clock)
            advance = min(clock, horizon - 1e-6) if live else clock
            if advance > profile.origin:
                profile.advance_origin(advance)
                live = [(max(s, advance), e, z) for (s, e, z) in live]
        bound = 2 * len(live) + 2
        assert profile.breakpoint_count() <= bound, (
            f"step {step}: {profile.breakpoint_count()} breakpoints for "
            f"{len(live)} live reservations (bound {bound})"
        )


def test_conservative_run_keeps_profile_bounded():
    """End-to-end: the scheduler's incremental profile tracks running jobs.

    On a long trace the conservative profile must hold breakpoints
    proportional to jobs *currently running*, never to jobs seen — the
    regression this pins is ``advance_origin``/merging failing to drop
    dead segments, which turns long simulations quadratic.
    """
    from repro.cluster.machine import Machine
    from repro.core.frequency_policy import BsldThresholdPolicy
    from repro.scheduling.base import SchedulerConfig
    from repro.scheduling.conservative import ConservativeBackfilling
    from tests.conftest import random_workload

    machine = Machine("m", 8)

    class Probed(ConservativeBackfilling):
        max_ratio = 0.0

        def _schedule_pass(self, now):
            super()._schedule_pass(now)
            running = max(1, len(self._running))
            ratio = self._profile.breakpoint_count() / (2 * running + 2)
            Probed.max_ratio = max(Probed.max_ratio, ratio)

    jobs = random_workload(seed=11, n_jobs=400, max_cpus=8)
    scheduler = Probed(machine, BsldThresholdPolicy(2.0, None), config=SchedulerConfig())
    result = scheduler.run(jobs)
    assert len(result.outcomes) == len(jobs)
    assert Probed.max_ratio <= 1.0, (
        f"profile breakpoints exceeded the running-set bound "
        f"({Probed.max_ratio:.2f}x) — dead segments are accumulating"
    )
