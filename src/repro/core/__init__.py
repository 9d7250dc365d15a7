"""The paper's contribution: gear sets and frequency-assignment policies."""

from repro.core.dynamic_boost import DynamicBoostConfig
from repro.core.frequency_policy import (
    BsldThresholdPolicy,
    FixedGearPolicy,
    FrequencyPolicy,
    NO_WQ_LIMIT,
)
from repro.core.gears import Gear, GearSet, PAPER_GEAR_SET, single_gear_set
from repro.core.util_policy import UtilizationTriggeredPolicy

__all__ = [
    "BsldThresholdPolicy",
    "DynamicBoostConfig",
    "FixedGearPolicy",
    "FrequencyPolicy",
    "Gear",
    "GearSet",
    "NO_WQ_LIMIT",
    "PAPER_GEAR_SET",
    "UtilizationTriggeredPolicy",
    "single_gear_set",
]
