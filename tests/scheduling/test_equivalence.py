"""The fast schedulers must match their profile-based references.

Fast EASY uses the O(1) shadow-time/extra-nodes backfill test and fast
conservative maintains its availability profile incrementally across
events; the references rebuild full availability profiles every pass,
the way the paper's pseudocode reads.  On any workload and any
frequency policy each fast/reference pair must produce *identical*
schedules (same start time and same gear for every job) — this is the
strongest correctness statement in the suite.
"""

import pytest
from hypothesis import given, settings

from repro.cluster.machine import Machine
from repro.core.frequency_policy import BsldThresholdPolicy, FixedGearPolicy
from repro.scheduling.base import SchedulerConfig
from repro.scheduling.conservative import ConservativeBackfilling
from repro.scheduling.easy import EasyBackfilling
from tests.conftest import random_workload, workload_strategy
from tests.oracles.reference import (
    ReferenceConservativeBackfilling,
    ReferenceEasyBackfilling,
)

POLICIES = {
    "nodvfs": lambda: FixedGearPolicy(),
    "fixed-low": lambda: FixedGearPolicy(0.8),
    "bsld(1.5,0)": lambda: BsldThresholdPolicy(1.5, 0),
    "bsld(2,4)": lambda: BsldThresholdPolicy(2.0, 4),
    "bsld(3,NO)": lambda: BsldThresholdPolicy(3.0, None),
    "bsld-strict": lambda: BsldThresholdPolicy(2.0, None, strict_top_backfill=True),
}


def assert_matching_pair(jobs, cpus, policy_factory, fast_cls, reference_cls):
    machine = Machine("m", cpus)
    fast = fast_cls(
        machine, policy_factory(), config=SchedulerConfig(validate=True)
    ).run(jobs)
    reference = reference_cls(
        machine, policy_factory(), config=SchedulerConfig(validate=True)
    ).run(jobs)
    for a, b in zip(fast.outcomes, reference.outcomes, strict=True):
        assert a.job.job_id == b.job.job_id
        assert a.start_time == pytest.approx(b.start_time, abs=1e-6), (
            f"job {a.job.job_id}: fast start {a.start_time}, reference {b.start_time}"
        )
        assert a.gear == b.gear, f"job {a.job.job_id}: {a.gear} vs {b.gear}"
    assert fast.energy.computational == pytest.approx(reference.energy.computational)


def assert_identical_schedules(jobs, cpus, policy_factory):
    assert_matching_pair(
        jobs, cpus, policy_factory, EasyBackfilling, ReferenceEasyBackfilling
    )


def assert_identical_conservative_schedules(jobs, cpus, policy_factory):
    assert_matching_pair(
        jobs,
        cpus,
        policy_factory,
        ConservativeBackfilling,
        ReferenceConservativeBackfilling,
    )


@pytest.mark.parametrize("policy_name", sorted(POLICIES))
@pytest.mark.parametrize("seed", range(6))
def test_equivalence_random_workloads(policy_name, seed):
    jobs = random_workload(seed=seed, n_jobs=60, max_cpus=8)
    assert_identical_schedules(jobs, 8, POLICIES[policy_name])


@pytest.mark.parametrize("policy_name", sorted(POLICIES))
def test_equivalence_bursty_arrivals(policy_name):
    """Many same-instant arrivals stress tie-breaking."""
    jobs = random_workload(seed=99, n_jobs=40, max_cpus=6, mean_gap=1.0)
    assert_identical_schedules(jobs, 6, POLICIES[policy_name])


@given(workload_strategy(max_jobs=20, max_cpus=6))
@settings(max_examples=25)
def test_equivalence_property_nodvfs(jobs):
    assert_identical_schedules(jobs, 6, POLICIES["nodvfs"])


@given(workload_strategy(max_jobs=20, max_cpus=6))
@settings(max_examples=25)
def test_equivalence_property_bsld(jobs):
    assert_identical_schedules(jobs, 6, POLICIES["bsld(2,4)"])


@given(workload_strategy(max_jobs=15, max_cpus=4))
@settings(max_examples=20)
def test_equivalence_property_bsld_no_limit(jobs):
    assert_identical_schedules(jobs, 4, POLICIES["bsld(3,NO)"])


@pytest.mark.parametrize("policy_name", sorted(POLICIES))
def test_equivalence_deep_queue_production_config(policy_name):
    """Deep queues (> 64 waiting) under the production configuration.

    Drives every incremental-scan path the small hypothesis workloads
    cannot reach: the vectorised candidate mask (wide windows), the
    cross-pass scan cache, the O(1) reservation update, and — because
    ``validate`` is *off* here, unlike the other differentials — the
    free==0 / single-waiter pass short-circuits.  The full-rescan
    reference must still match job for job.
    """
    jobs = random_workload(seed=13, n_jobs=220, max_cpus=4, mean_gap=40.0)
    machine = Machine("m", 4)
    fast = EasyBackfilling(machine, POLICIES[policy_name]()).run(jobs)
    reference = ReferenceEasyBackfilling(machine, POLICIES[policy_name]()).run(jobs)
    peak_queue = max(
        sum(1 for other in jobs if other.submit_time <= o.job.submit_time)
        - sum(1 for other in fast.outcomes if other.start_time <= o.job.submit_time)
        for o in fast.outcomes
    )
    assert peak_queue > 64, "workload too shallow to exercise the wide-mask path"
    for a, b in zip(fast.outcomes, reference.outcomes, strict=True):
        assert a.job.job_id == b.job.job_id
        assert a.start_time == pytest.approx(b.start_time, abs=1e-6)
        assert a.gear == b.gear
    assert fast.energy.computational == pytest.approx(reference.energy.computational)


@pytest.mark.parametrize("policy_name", ["nodvfs", "bsld(2,4)", "bsld(3,NO)"])
def test_conservative_deep_queue_production_config(policy_name):
    """Conservative incremental profile + pass skips on a deep queue,
    against the rebuild-per-pass reference, with validation off."""
    jobs = random_workload(seed=13, n_jobs=120, max_cpus=4, mean_gap=40.0)
    machine = Machine("m", 4)
    fast = ConservativeBackfilling(machine, POLICIES[policy_name]()).run(jobs)
    reference = ReferenceConservativeBackfilling(machine, POLICIES[policy_name]()).run(jobs)
    for a, b in zip(fast.outcomes, reference.outcomes, strict=True):
        assert a.job.job_id == b.job.job_id
        assert a.start_time == pytest.approx(b.start_time, abs=1e-6)
        assert a.gear == b.gear


# -- conservative backfilling: incremental profile vs rebuild-per-pass ---------


@pytest.mark.parametrize("policy_name", sorted(POLICIES))
@pytest.mark.parametrize("seed", range(4))
def test_conservative_equivalence_random_workloads(policy_name, seed):
    jobs = random_workload(seed=seed, n_jobs=50, max_cpus=8)
    assert_identical_conservative_schedules(jobs, 8, POLICIES[policy_name])


@pytest.mark.parametrize("policy_name", sorted(POLICIES))
def test_conservative_equivalence_bursty_arrivals(policy_name):
    """Many same-instant arrivals stress tie-breaking and replanning."""
    jobs = random_workload(seed=77, n_jobs=35, max_cpus=6, mean_gap=1.0)
    assert_identical_conservative_schedules(jobs, 6, POLICIES[policy_name])


@given(workload_strategy(max_jobs=18, max_cpus=6))
@settings(max_examples=25)
def test_conservative_equivalence_property_nodvfs(jobs):
    assert_identical_conservative_schedules(jobs, 6, POLICIES["nodvfs"])


@given(workload_strategy(max_jobs=18, max_cpus=6))
@settings(max_examples=25)
def test_conservative_equivalence_property_bsld(jobs):
    assert_identical_conservative_schedules(jobs, 6, POLICIES["bsld(2,4)"])


@given(workload_strategy(max_jobs=14, max_cpus=4))
@settings(max_examples=20)
def test_conservative_equivalence_property_bsld_no_limit(jobs):
    assert_identical_conservative_schedules(jobs, 4, POLICIES["bsld(3,NO)"])
