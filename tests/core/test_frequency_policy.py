"""Unit tests for the frequency-assignment policies (Figures 1-2 logic)."""

import pytest

from repro.core.frequency_policy import (
    BsldThresholdPolicy,
    FixedGearPolicy,
    GearCappedPolicy,
    NO_WQ_LIMIT,
)
from repro.core.gears import PAPER_GEAR_SET
from repro.power.time_model import BetaTimeModel
from tests.conftest import make_job

TIME_MODEL = BetaTimeModel.for_gear_set(PAPER_GEAR_SET)
LADDER = PAPER_GEAR_SET.ascending()
TOP = len(LADDER) - 1
#: ``lowest_feasible`` when the admission test rejects every gear.
NONE_FEASIBLE = len(LADDER)


def bind(policy):
    policy.bind(PAPER_GEAR_SET, TIME_MODEL)
    return policy


def index_of(frequency):
    """Ladder index of the gear at ``frequency`` GHz."""
    return LADDER.index(PAPER_GEAR_SET.by_frequency(frequency))


def select(policy, job, wait=0.0, wq=0, must=True, lowest=0, util=0.5, wait_for=None):
    return policy.select(job, wait, wq, util, must, lowest, wait_for)


def gear(policy, job, **ctx):
    index = select(policy, job, **ctx)
    assert index >= 0, "the policy skipped the job"
    return LADDER[index]


class TestFixedGearPolicy:
    def test_defaults_to_top(self):
        policy = bind(FixedGearPolicy())
        assert gear(policy, make_job()) == PAPER_GEAR_SET.top
        assert not policy.applies_dvfs
        assert policy.describe() == "FixedGear(top)"

    def test_pinned_gear(self):
        policy = bind(FixedGearPolicy(0.8))
        assert gear(policy, make_job()) == PAPER_GEAR_SET.lowest
        assert policy.applies_dvfs

    def test_unknown_frequency_raises_at_bind(self):
        with pytest.raises(KeyError):
            bind(FixedGearPolicy(1.75))

    def test_infeasible_returns_none(self):
        policy = bind(FixedGearPolicy())
        assert select(policy, make_job(), lowest=NONE_FEASIBLE) == -1


class TestBsldThresholdSelection:
    def test_zero_wait_long_request_picks_lowest_passing_gear(self):
        # pred = Coef(f) for RQ >= 600 at zero wait.
        job = make_job(runtime=5000.0, requested=5000.0)
        assert gear(bind(BsldThresholdPolicy(2.0, None)), job).frequency == 0.8
        assert gear(bind(BsldThresholdPolicy(1.5, None)), job).frequency == 1.4
        assert gear(bind(BsldThresholdPolicy(1.2, None)), job).frequency == 1.7

    def test_short_request_always_lowest(self):
        # RQ=300 < 600: pred = max(300*Coef/600, 1) = 1 < any threshold.
        job = make_job(runtime=300.0, requested=300.0)
        policy = bind(BsldThresholdPolicy(1.5, None))
        assert gear(policy, job).frequency == 0.8

    def test_large_wait_forces_top_for_head(self):
        job = make_job(runtime=1000.0, requested=1000.0)
        policy = bind(BsldThresholdPolicy(2.0, None))
        # wait 10000s: pred at top = 11 > 2, but the head must schedule.
        assert select(policy, job, wait=10000.0, must=True) == TOP

    def test_large_wait_backfill_allowed_at_top_by_default(self):
        job = make_job(runtime=1000.0, requested=1000.0)
        policy = bind(BsldThresholdPolicy(2.0, None))
        # relaxed Figure-2 reading
        assert select(policy, job, wait=10000.0, must=False) == TOP

    def test_strict_mode_blocks_top_backfill(self):
        job = make_job(runtime=1000.0, requested=1000.0)
        policy = bind(BsldThresholdPolicy(2.0, None, strict_top_backfill=True))
        assert select(policy, job, wait=10000.0, must=False) == -1

    def test_strict_mode_still_schedules_heads(self):
        job = make_job(runtime=1000.0, requested=1000.0)
        policy = bind(BsldThresholdPolicy(2.0, None, strict_top_backfill=True))
        assert select(policy, job, wait=10000.0, must=True) == TOP


class TestWqThreshold:
    def test_wq_over_threshold_goes_top(self):
        job = make_job(runtime=5000.0, requested=5000.0)
        policy = bind(BsldThresholdPolicy(3.0, wq_threshold=4))
        assert gear(policy, job, wq=5).frequency == 2.3
        assert gear(policy, job, wq=4).frequency == 0.8

    def test_wq_zero_semantics(self):
        """WQ threshold 0 still reduces when no *other* job waits."""
        job = make_job(runtime=5000.0, requested=5000.0)
        policy = bind(BsldThresholdPolicy(2.0, wq_threshold=0))
        assert gear(policy, job, wq=0).frequency == 0.8
        assert gear(policy, job, wq=1).frequency == 2.3

    def test_no_limit(self):
        job = make_job(runtime=5000.0, requested=5000.0)
        policy = bind(BsldThresholdPolicy(2.0, NO_WQ_LIMIT))
        assert gear(policy, job, wq=10**6).frequency == 0.8


class TestFeasibility:
    def test_infeasible_low_gears_skipped(self):
        job = make_job(runtime=5000.0, requested=5000.0)
        policy = bind(BsldThresholdPolicy(2.0, None))
        # Gears from 1.4 GHz up are feasible, and pred = Coef(1.4) = 1.32 < 2.
        assert gear(policy, job, lowest=index_of(1.4)).frequency == pytest.approx(1.4)

    def test_nothing_feasible_backfill_returns_none(self):
        job = make_job(runtime=5000.0, requested=5000.0)
        policy = bind(BsldThresholdPolicy(2.0, None))
        assert select(policy, job, lowest=NONE_FEASIBLE, must=False) == -1

    def test_nothing_feasible_head_still_returns_top(self):
        """Heads fall back to Ftop even if the admission test objects;
        EASY's reservation for the head cannot be skipped."""
        job = make_job(runtime=5000.0, requested=5000.0)
        policy = bind(BsldThresholdPolicy(2.0, None))
        assert select(policy, job, lowest=NONE_FEASIBLE, must=True) == TOP


class TestPredict:
    def test_matches_formula(self):
        policy = bind(BsldThresholdPolicy(2.0, None))
        job = make_job(runtime=1000.0, requested=1200.0)
        low = PAPER_GEAR_SET.lowest
        expected = (600.0 + 1200.0 * 1.9375) / 1200.0
        assert policy.predict(job, low, wait_time=600.0) == pytest.approx(expected)

    def test_honours_per_job_beta(self):
        policy = bind(BsldThresholdPolicy(2.0, None))
        cpu_bound = make_job(runtime=5000.0, requested=5000.0, beta=1.0)
        mem_bound = make_job(runtime=5000.0, requested=5000.0, beta=0.0)
        low = PAPER_GEAR_SET.lowest
        assert policy.predict(cpu_bound, low, 0.0) == pytest.approx(2.3 / 0.8)
        assert policy.predict(mem_bound, low, 0.0) == pytest.approx(1.0)

    def test_per_job_beta_changes_selection(self):
        policy = bind(BsldThresholdPolicy(1.5, None))
        mem_bound = make_job(runtime=5000.0, requested=5000.0, beta=0.1)
        assert gear(policy, mem_bound).frequency == 0.8


class TestValidation:
    def test_threshold_below_one_rejected(self):
        with pytest.raises(ValueError, match="bsld_threshold"):
            BsldThresholdPolicy(0.9, None)

    def test_negative_wq_rejected(self):
        with pytest.raises(ValueError, match="wq_threshold"):
            BsldThresholdPolicy(2.0, -1)

    def test_describe(self):
        assert BsldThresholdPolicy(2.0, 4).describe() == "BSLDthreshold=2, WQthreshold=4"
        assert "NO" in BsldThresholdPolicy(2.0, None).describe()
        assert "strict" in BsldThresholdPolicy(2.0, None, strict_top_backfill=True).describe()

    def test_gear_dependent_wait_context(self):
        """``wait_for`` supplies per-gear wait times (conservative BF)."""
        policy = bind(BsldThresholdPolicy(1.5, None))
        job = make_job(runtime=5000.0, requested=5000.0)

        # Lower gears imply huge waits; only 2.0 GHz and up see a zero wait.
        def wait_for(index):
            return 0.0 if LADDER[index].frequency >= 2.0 else 1e6

        chosen = gear(policy, job, wait=wait_for(TOP), wait_for=wait_for)
        assert chosen.frequency == pytest.approx(2.0)


class TestGearCap:
    def test_selection_above_cap_steps_down(self):
        policy = bind(GearCappedPolicy(FixedGearPolicy(), 1.7))
        assert gear(policy, make_job()).frequency == pytest.approx(1.7)

    def test_selection_below_cap_unchanged(self):
        policy = bind(GearCappedPolicy(FixedGearPolicy(0.8), 1.7))
        assert gear(policy, make_job()).frequency == 0.8

    def test_capped_backfill_skipped_when_cap_gear_infeasible(self):
        policy = bind(GearCappedPolicy(FixedGearPolicy(), 1.7))
        assert select(policy, make_job(), must=False, lowest=index_of(2.0)) == -1

    def test_capped_head_always_scheduled(self):
        policy = bind(GearCappedPolicy(FixedGearPolicy(), 1.7))
        assert select(policy, make_job(), must=True, lowest=index_of(2.0)) == index_of(1.7)

    def test_cap_below_ladder_clamps_to_lowest(self):
        policy = bind(GearCappedPolicy(FixedGearPolicy(), 0.5))
        assert gear(policy, make_job()) == PAPER_GEAR_SET.lowest
