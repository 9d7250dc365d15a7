"""Unit tests for the utilisation-triggered comparator policy."""

import pytest

from repro.core.gears import PAPER_GEAR_SET
from repro.core.util_policy import UtilizationTriggeredPolicy
from repro.power.time_model import BetaTimeModel
from tests.conftest import make_job

LADDER = PAPER_GEAR_SET.ascending()
#: ``lowest_feasible`` when the admission test rejects every gear.
NONE_FEASIBLE = len(LADDER)


def bind(policy=None):
    policy = policy or UtilizationTriggeredPolicy()
    policy.bind(PAPER_GEAR_SET, BetaTimeModel.for_gear_set(PAPER_GEAR_SET))
    return policy


def select(policy, util, must=True, lowest=0):
    return policy.select(make_job(), 0.0, 0, util, must, lowest)


def gear(policy, util, **ctx):
    index = select(policy, util, **ctx)
    assert index >= 0, "the policy skipped the job"
    return LADDER[index]


class TestGearMapping:
    def test_idle_machine_lowest_gear(self):
        assert gear(bind(), 0.1).frequency == 0.8

    def test_mid_utilization_mid_gear(self):
        assert gear(bind(), 0.5).frequency == pytest.approx(1.7)

    def test_busy_machine_top_gear(self):
        assert gear(bind(), 0.9).frequency == 2.3

    def test_boundaries_are_exclusive(self):
        policy = bind()
        assert gear(policy, 0.4).frequency == pytest.approx(1.7)
        assert gear(policy, 0.6).frequency == 2.3

    def test_custom_steps(self):
        policy = bind(UtilizationTriggeredPolicy(steps=((0.8, 1),)))
        assert gear(policy, 0.5).frequency == pytest.approx(1.1)
        assert gear(policy, 0.9).frequency == 2.3

    def test_gear_index_clamped_to_ladder(self):
        policy = bind(UtilizationTriggeredPolicy(steps=((0.9, 99),)))
        assert gear(policy, 0.1) == PAPER_GEAR_SET.top


class TestFeasibilityFallback:
    def test_falls_back_to_faster_gear(self):
        policy = bind()
        # Only gears from 2.0 GHz up are feasible.
        lowest = LADDER.index(PAPER_GEAR_SET.by_frequency(2.0))
        assert gear(policy, 0.1, lowest=lowest).frequency == pytest.approx(2.0)

    def test_backfill_may_fail(self):
        policy = bind()
        assert select(policy, 0.1, must=False, lowest=NONE_FEASIBLE) == -1

    def test_head_always_scheduled(self):
        policy = bind()
        assert gear(policy, 0.1, must=True, lowest=NONE_FEASIBLE) == PAPER_GEAR_SET.top


class TestValidation:
    def test_unsorted_bounds_rejected(self):
        with pytest.raises(ValueError, match="ascending"):
            UtilizationTriggeredPolicy(steps=((0.6, 0), (0.4, 1)))

    def test_duplicate_bounds_rejected(self):
        # Regression: `bounds != sorted(bounds)` accepted duplicates,
        # silently dead-lettering the later step (first match wins).
        with pytest.raises(ValueError, match="strictly ascending"):
            UtilizationTriggeredPolicy(steps=((0.4, 0), (0.4, 3)))

    def test_strictly_ascending_bounds_accepted(self):
        policy = UtilizationTriggeredPolicy(steps=((0.2, 0), (0.4, 1), (0.9, 2)))
        assert "UtilizationTriggered" in policy.describe()

    def test_out_of_range_bounds_rejected(self):
        with pytest.raises(ValueError, match="0, 1"):
            UtilizationTriggeredPolicy(steps=((1.4, 0),))

    def test_negative_gear_index_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            UtilizationTriggeredPolicy(steps=((0.4, -1),))

    def test_describe(self):
        assert "UtilizationTriggered" in UtilizationTriggeredPolicy().describe()
