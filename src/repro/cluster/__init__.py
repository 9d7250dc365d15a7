"""Cluster model: machines, processor pools, availability profiles and
node power management (idle sleep states)."""

from repro.cluster.machine import Machine
from repro.cluster.power import NodePowerManager, SleepPolicy
from repro.cluster.processors import ProcessorPool
from repro.cluster.profile import AvailabilityProfile

__all__ = [
    "AvailabilityProfile",
    "Machine",
    "NodePowerManager",
    "ProcessorPool",
    "SleepPolicy",
]
