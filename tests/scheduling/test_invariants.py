"""Cross-cutting scheduler invariants on random workloads.

Every scheduler, under every policy, must satisfy: all jobs complete,
no job starts before submission, the machine is never oversubscribed
(asserted live via ``SchedulerConfig(validate=True)``), outcomes carry
consistent energies, and the no-DVFS power-aware policy is bitwise
identical to the plain baseline.
"""

import pytest
from hypothesis import given, settings

from repro.cluster.machine import Machine
from repro.core.frequency_policy import BsldThresholdPolicy, FixedGearPolicy
from repro.core.util_policy import UtilizationTriggeredPolicy
from repro.power.model import PowerModel
from repro.scheduling.base import SchedulerConfig
from repro.scheduling.conservative import ConservativeBackfilling
from repro.scheduling.easy import EasyBackfilling
from repro.scheduling.fcfs import FcfsScheduler
from tests.conftest import random_workload, workload_strategy

SCHEDULERS = {
    "easy": EasyBackfilling,
    "fcfs": FcfsScheduler,
    "conservative": ConservativeBackfilling,
}


def check_result(result, jobs, machine):
    assert result.job_count == len(jobs)
    seen = {o.job.job_id for o in result.outcomes}
    assert seen == {j.job_id for j in jobs}
    model = PowerModel(gears=machine.gears)
    for outcome in result.outcomes:
        assert outcome.start_time >= outcome.job.submit_time - 1e-9
        assert outcome.finish_time >= outcome.start_time - 1e-9
        assert outcome.penalized_runtime >= outcome.job.runtime * 0.999 - 1e-6
        if not outcome.was_reduced:
            # unreduced jobs run exactly their nominal runtime
            assert outcome.penalized_runtime == pytest.approx(
                outcome.job.runtime, abs=1e-6
            )
            expected = model.active_energy(
                outcome.gear, outcome.job.size, outcome.penalized_runtime
            )
            assert outcome.energy == pytest.approx(expected, rel=1e-9)
    # per-job energies add up to the computational total
    total = sum(o.energy for o in result.outcomes)
    assert total == pytest.approx(result.energy.computational, rel=1e-9)


@pytest.mark.parametrize("scheduler_name", sorted(SCHEDULERS))
@pytest.mark.parametrize("seed", range(4))
def test_invariants_no_dvfs(scheduler_name, seed):
    jobs = random_workload(seed=seed, n_jobs=50, max_cpus=8)
    machine = Machine("m", 8)
    scheduler = SCHEDULERS[scheduler_name](
        machine, FixedGearPolicy(), config=SchedulerConfig(validate=True)
    )
    check_result(scheduler.run(jobs), jobs, machine)


@pytest.mark.parametrize("scheduler_name", sorted(SCHEDULERS))
@pytest.mark.parametrize("seed", range(4))
def test_invariants_power_aware(scheduler_name, seed):
    jobs = random_workload(seed=seed + 100, n_jobs=50, max_cpus=8)
    machine = Machine("m", 8)
    scheduler = SCHEDULERS[scheduler_name](
        machine, BsldThresholdPolicy(2.0, 4), config=SchedulerConfig(validate=True)
    )
    check_result(scheduler.run(jobs), jobs, machine)


@pytest.mark.parametrize("seed", range(3))
def test_invariants_utilization_policy(seed):
    jobs = random_workload(seed=seed + 50, n_jobs=40, max_cpus=8)
    machine = Machine("m", 8)
    scheduler = EasyBackfilling(
        machine, UtilizationTriggeredPolicy(), config=SchedulerConfig(validate=True)
    )
    check_result(scheduler.run(jobs), jobs, machine)


def test_power_aware_with_top_only_gear_equals_baseline():
    """A one-gear ladder makes the BSLD policy a no-op."""
    from repro.core.gears import single_gear_set

    jobs = random_workload(seed=7, n_jobs=60, max_cpus=8)
    machine = Machine("m", 8, gears=single_gear_set())
    base = EasyBackfilling(machine, FixedGearPolicy()).run(jobs)
    powered = EasyBackfilling(machine, BsldThresholdPolicy(2.0, None)).run(jobs)
    for a, b in zip(base.outcomes, powered.outcomes, strict=True):
        assert a.start_time == b.start_time
        assert a.gear == b.gear
    assert powered.reduced_jobs == 0
    assert powered.energy.computational == pytest.approx(base.energy.computational)


def test_infeasible_bsld_threshold_never_reduces():
    """Threshold 1.0 cannot be met (BSLD >= 1), so nothing reduces and
    the schedule equals the baseline exactly."""
    jobs = random_workload(seed=21, n_jobs=60, max_cpus=8)
    machine = Machine("m", 8)
    base = EasyBackfilling(machine, FixedGearPolicy()).run(jobs)
    powered = EasyBackfilling(machine, BsldThresholdPolicy(1.0, None)).run(jobs)
    assert powered.reduced_jobs == 0
    for a, b in zip(base.outcomes, powered.outcomes, strict=True):
        assert a.start_time == pytest.approx(b.start_time)


def test_reduction_only_ever_costs_performance_not_schedulability():
    """Power-aware runs finish all jobs even under extreme reduction."""
    jobs = random_workload(seed=3, n_jobs=80, max_cpus=6)
    machine = Machine("m", 6)
    result = EasyBackfilling(
        machine, FixedGearPolicy(0.8), config=SchedulerConfig(validate=True)
    ).run(jobs)
    assert result.job_count == 80
    assert result.reduced_jobs == 80


def test_runtimes_clamp_to_request_on_ingest():
    """A job running past its request is killed at the limit."""
    from repro.scheduling.job import Job

    jobs = [Job(1, 0.0, 300.0, 100.0, 2)]  # runs past its estimate
    machine = Machine("m", 4)
    clamped = EasyBackfilling(machine, FixedGearPolicy()).run(jobs)
    assert clamped.outcomes[0].finish_time == pytest.approx(100.0)


def test_determinism():
    """Two runs of the same configuration are bitwise identical."""
    jobs = random_workload(seed=5, n_jobs=70, max_cpus=8)
    machine = Machine("m", 8)
    a = EasyBackfilling(machine, BsldThresholdPolicy(2.0, 4)).run(jobs)
    b = EasyBackfilling(machine, BsldThresholdPolicy(2.0, 4)).run(jobs)
    assert [o.start_time for o in a.outcomes] == [o.start_time for o in b.outcomes]
    assert a.energy.computational == b.energy.computational


@given(workload_strategy(max_jobs=25, max_cpus=8))
@settings(max_examples=30)
def test_easy_invariants_property(jobs):
    machine = Machine("m", 8)
    result = EasyBackfilling(
        machine, BsldThresholdPolicy(2.0, 4), config=SchedulerConfig(validate=True)
    ).run(jobs)
    check_result(result, jobs, machine)


@given(workload_strategy(max_jobs=18, max_cpus=6))
@settings(max_examples=15)
def test_conservative_invariants_property(jobs):
    machine = Machine("m", 6)
    result = ConservativeBackfilling(
        machine, BsldThresholdPolicy(2.0, 4), config=SchedulerConfig(validate=True)
    ).run(jobs)
    check_result(result, jobs, machine)


def test_timeline_recording():
    jobs = random_workload(seed=11, n_jobs=30, max_cpus=8)
    machine = Machine("m", 8)
    result = EasyBackfilling(
        machine, FixedGearPolicy(), config=SchedulerConfig(record_timeline=True)
    ).run(jobs)
    assert len(result.timeline) == 60  # one sample per event
    times = [p.time for p in result.timeline]
    assert times == sorted(times)
    assert all(0 <= p.busy_cpus <= 8 for p in result.timeline)
