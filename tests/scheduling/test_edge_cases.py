"""Edge cases and failure injection across the scheduling stack."""

import pytest

from repro.cluster.machine import Machine
from repro.core.frequency_policy import BsldThresholdPolicy, FixedGearPolicy
from repro.scheduling.base import SchedulerConfig
from repro.scheduling.conservative import ConservativeBackfilling
from repro.scheduling.easy import EasyBackfilling
from repro.scheduling.fcfs import FcfsScheduler
from repro.scheduling.job import Job
from tests.conftest import make_job
from tests.oracles.reference import ReferenceEasyBackfilling

ALL_SCHEDULERS = [EasyBackfilling, FcfsScheduler, ConservativeBackfilling, ReferenceEasyBackfilling]


def run(scheduler_cls, jobs, cpus=4, policy=None):
    return scheduler_cls(
        Machine("m", cpus), policy or FixedGearPolicy(), config=SchedulerConfig(validate=True)
    ).run(jobs)


@pytest.mark.parametrize("scheduler_cls", ALL_SCHEDULERS)
class TestDegenerateTraces:
    def test_empty_trace(self, scheduler_cls):
        result = run(scheduler_cls, [])
        assert result.job_count == 0
        assert result.energy.computational == 0.0
        assert result.makespan == 0.0

    def test_single_job(self, scheduler_cls):
        result = run(scheduler_cls, [make_job(1, runtime=100.0, size=4)])
        assert result.outcomes[0].start_time == 0.0
        assert result.outcomes[0].finish_time == pytest.approx(100.0)

    def test_zero_runtime_job(self, scheduler_cls):
        jobs = [
            make_job(1, submit=0.0, runtime=0.0, requested=900.0, size=2),
            make_job(2, submit=0.0, runtime=50.0, size=2),
        ]
        result = run(scheduler_cls, jobs)
        by_id = {o.job.job_id: o for o in result.outcomes}
        assert by_id[1].finish_time == by_id[1].start_time
        assert by_id[1].energy == 0.0

    def test_machine_filling_job(self, scheduler_cls):
        jobs = [
            make_job(1, submit=0.0, runtime=10.0, size=4),
            make_job(2, submit=1.0, runtime=10.0, size=4),
        ]
        result = run(scheduler_cls, jobs)
        by_id = {o.job.job_id: o for o in result.outcomes}
        assert by_id[2].start_time == pytest.approx(10.0)

    def test_single_cpu_machine(self, scheduler_cls):
        jobs = [make_job(i, submit=float(i), runtime=5.0, size=1) for i in range(1, 6)]
        result = run(scheduler_cls, jobs, cpus=1)
        starts = [o.start_time for o in result.outcomes]
        assert starts == sorted(starts)

    def test_mass_simultaneous_arrivals(self, scheduler_cls):
        jobs = [make_job(i, submit=100.0, runtime=10.0, size=2) for i in range(1, 21)]
        result = run(scheduler_cls, jobs)
        assert result.job_count == 20
        # 2 jobs fit at a time; FCFS pairs: ids (1,2) first
        by_id = {o.job.job_id: o for o in result.outcomes}
        assert by_id[1].start_time == 100.0
        assert by_id[2].start_time == 100.0

    def test_identical_jobs_keep_id_order(self, scheduler_cls):
        jobs = [make_job(i, submit=0.0, runtime=10.0, size=4) for i in range(1, 6)]
        result = run(scheduler_cls, jobs)
        starts = {o.job.job_id: o.start_time for o in result.outcomes}
        assert starts[1] < starts[2] < starts[3] < starts[4] < starts[5]


class TestSchedulerRejections:
    def test_oversized_job_rejected(self):
        with pytest.raises(ValueError, match="needs 8 CPUs"):
            run(EasyBackfilling, [make_job(1, size=8)], cpus=4)

    def test_unsorted_trace_rejected(self):
        jobs = [make_job(1, submit=10.0), make_job(2, submit=0.0)]
        with pytest.raises(ValueError, match="sorted"):
            run(EasyBackfilling, jobs)

    def test_duplicate_ids_rejected(self):
        jobs = [make_job(1), make_job(1, submit=5.0)]
        with pytest.raises(ValueError, match="duplicate"):
            run(EasyBackfilling, jobs)


class TestRequestedTimeExtremes:
    def test_huge_overestimates_still_finish_on_actuals(self):
        # 1000x overestimates: reservations are absurdly pessimistic but
        # early-finish rescheduling keeps the machine busy.
        jobs = [
            make_job(i, submit=float(i), runtime=10.0, requested=10000.0, size=2)
            for i in range(1, 11)
        ]
        result = run(EasyBackfilling, jobs)
        assert result.makespan < 200.0  # nowhere near the estimates

    def test_exact_estimates(self):
        jobs = [
            make_job(i, submit=0.0, runtime=50.0, requested=50.0, size=2)
            for i in range(1, 5)
        ]
        result = run(EasyBackfilling, jobs)
        assert result.makespan == pytest.approx(100.0)

    def test_tiny_fractional_runtimes(self):
        jobs = [
            make_job(i, submit=i * 1e-3, runtime=1e-3, requested=1.0, size=1)
            for i in range(1, 50)
        ]
        result = run(EasyBackfilling, jobs, cpus=2)
        assert result.job_count == 49


class TestPerJobBetaEndToEnd:
    def test_beta_zero_job_runs_at_lowest_without_stretch(self):
        policy = BsldThresholdPolicy(1.2, None)  # strict threshold
        jobs = [make_job(1, runtime=1000.0, requested=1000.0, size=2, beta=0.0)]
        result = run(EasyBackfilling, jobs, policy=policy)
        outcome = result.outcomes[0]
        assert outcome.gear.frequency == 0.8  # free to reduce
        assert outcome.penalized_runtime == pytest.approx(1000.0)  # no stretch

    def test_beta_one_job_stays_at_top_under_strict_threshold(self):
        policy = BsldThresholdPolicy(1.2, None)
        jobs = [make_job(1, runtime=1000.0, requested=1000.0, size=2, beta=1.0)]
        result = run(EasyBackfilling, jobs, policy=policy)
        # Coef at beta=1: 2.3/f; even 2.0GHz gives 1.15 < 1.2! check:
        # f=2.0 -> 2.3/2.0 = 1.15 < 1.2 -> reduced to 2.0GHz.
        outcome = result.outcomes[0]
        assert outcome.gear.frequency == pytest.approx(2.0)
        assert outcome.penalized_runtime == pytest.approx(1000.0 * 1.15)

    def test_fast_reference_equivalence_with_mixed_betas(self):
        from repro.power.beta_model import BimodalBeta
        from tests.conftest import random_workload

        base_jobs = random_workload(seed=61, n_jobs=60, max_cpus=8)
        betas = BimodalBeta().assign(len(base_jobs), seed=2)
        jobs = [job.with_beta(beta) for job, beta in zip(base_jobs, betas, strict=True)]
        machine = Machine("m", 8)
        fast = EasyBackfilling(
            machine, BsldThresholdPolicy(2.0, 4), config=SchedulerConfig(validate=True)
        ).run(jobs)
        reference = ReferenceEasyBackfilling(
            machine, BsldThresholdPolicy(2.0, 4), config=SchedulerConfig(validate=True)
        ).run(jobs)
        for a, b in zip(fast.outcomes, reference.outcomes, strict=True):
            assert a.start_time == pytest.approx(b.start_time, abs=1e-6)
            assert a.gear == b.gear

    def test_boost_respects_per_job_beta(self):
        from repro.core.dynamic_boost import DynamicBoostConfig

        # A beta=0 job boosted to top gains no time (its runtime never
        # depended on frequency) but starts costing top-gear power.
        policy = BsldThresholdPolicy(3.0, None)
        config = SchedulerConfig(
            validate=True,
            boost=DynamicBoostConfig(wq_trigger=0, min_remaining_seconds=0.0),
        )
        jobs = [
            Job(1, 0.0, 1000.0, 1000.0, 4, beta=0.0),
            Job(2, 100.0, 10.0, 10.0, 4),
        ]
        result = EasyBackfilling(Machine("m", 4), policy, config=config).run(jobs)
        outcome = {o.job.job_id: o for o in result.outcomes}[1]
        assert outcome.finish_time == pytest.approx(1000.0)  # unchanged by boost
