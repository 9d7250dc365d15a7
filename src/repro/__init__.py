"""repro — reproduction of *BSLD Threshold Driven Power Management
Policy for HPC Centers* (Etinski, Corbalán, Labarta, Valero; IPDPS
Workshops 2010).

The package simulates DVFS-enabled clusters running parallel-job
workloads under EASY backfilling, with the paper's BSLD-threshold
frequency-assignment policy layered on top.  The recommended entry
point is the :mod:`repro.api` facade:

    >>> from repro import PolicySpec, RunSpec, Simulation
    >>> baseline = Simulation(RunSpec(workload="CTC", n_jobs=500)).run()
    >>> powered = Simulation(
    ...     RunSpec(workload="CTC", n_jobs=500,
    ...             policy=PolicySpec.power_aware(2.0, 4))
    ... ).run()

The lower-level pieces (schedulers, policies, machines, workload
generators) remain importable for direct composition:

    >>> from repro import (EasyBackfilling, BsldThresholdPolicy,
    ...                    FixedGearPolicy, Machine, load_workload)
    >>> jobs = load_workload("CTC", n_jobs=500)
    >>> machine = Machine("CTC", total_cpus=430)
    >>> result = EasyBackfilling(machine, FixedGearPolicy()).run(jobs)

For *runtime* visibility and control — live telemetry, power capping,
mid-run policy hot-swap — arm a steppable session instead of calling
``run()``:

    >>> from repro import InstrumentSpec, RunSpec, Simulation
    >>> spec = RunSpec(workload="CTC", n_jobs=500,
    ...                instruments=(InstrumentSpec.of("power_telemetry"),))
    >>> session = Simulation(spec).session()
    >>> session.run_until(3600.0); result = session.result()

New components (schedulers, policy kinds, power models, workload
sources, instruments) plug in by registering on :mod:`repro.registry`;
see README.md for a quickstart and the extension walkthrough.
"""

from repro.api import DEFAULT_N_JOBS, Simulation, normalize_spec
from repro.batch import BatchReport, BatchRunner, SpecFailure
from repro.cluster.machine import Machine
from repro.cluster.power import NodePowerManager, SleepPolicy
from repro.core.dynamic_boost import DynamicBoostConfig
from repro.core.frequency_policy import (
    BsldThresholdPolicy,
    FixedGearPolicy,
    FrequencyPolicy,
    GearCappedPolicy,
    NO_WQ_LIMIT,
)
from repro.core.gears import Gear, GearSet, PAPER_GEAR_SET
from repro.core.util_policy import UtilizationTriggeredPolicy
from repro.experiments.config import InstrumentSpec, PolicySpec, RunSpec
from repro.experiments.runner import ExperimentRunner
from repro.instruments import (
    BsldMonitor,
    EventTraceRecorder,
    Instrument,
    InstrumentContext,
    PowerCapController,
    PowerTelemetrySampler,
)
from repro.metrics.bsld import BSLD_THRESHOLD_SECONDS, bounded_slowdown, predicted_bsld
from repro.power.energy import EnergyReport
from repro.power.model import PowerModel
from repro.registry import (
    ABLATIONS,
    ENGINES,
    FIGURES,
    INSTRUMENTS,
    POLICIES,
    POWER_MODELS,
    Registry,
    RegistryError,
    SCHEDULERS,
    SLEEP_POLICIES,
    WORKLOAD_SOURCES,
)
from repro.power.time_model import BetaTimeModel, DEFAULT_BETA, PAPER_BETA
from repro.scheduling.base import Scheduler, SchedulerConfig
from repro.scheduling.conservative import ConservativeBackfilling
from repro.scheduling.easy import EasyBackfilling
from repro.scheduling.fcfs import FcfsScheduler
from repro.scheduling.job import Job, JobOutcome
from repro.scheduling.result import InstrumentReport, ResultAggregates, SimulationResult
from repro.serialize import SpecValidationError
from repro.serve import QuotaPolicy, ReproServer, ServeClient, ServeError
from repro.session import SessionCancelled, SimulationSession
from repro.sweep import SweepManifest, SweepReport, run_sweep
from repro.workloads.generator import generate_workload, load_workload
from repro.workloads.models import PAPER_BASELINE_BSLD, TRACE_MODELS, WORKLOAD_NAMES
from repro.workloads.swf import read_swf, write_swf

__version__ = "1.3.0"

__all__ = [
    "ABLATIONS",
    "BSLD_THRESHOLD_SECONDS",
    "BatchReport",
    "BatchRunner",
    "BetaTimeModel",
    "BsldThresholdPolicy",
    "ConservativeBackfilling",
    "DEFAULT_BETA",
    "DEFAULT_N_JOBS",
    "DynamicBoostConfig",
    "ENGINES",
    "EasyBackfilling",
    "EnergyReport",
    "ExperimentRunner",
    "FIGURES",
    "FcfsScheduler",
    "BsldMonitor",
    "EventTraceRecorder",
    "FixedGearPolicy",
    "FrequencyPolicy",
    "Gear",
    "GearCappedPolicy",
    "GearSet",
    "INSTRUMENTS",
    "Instrument",
    "InstrumentContext",
    "InstrumentReport",
    "InstrumentSpec",
    "Job",
    "JobOutcome",
    "Machine",
    "NO_WQ_LIMIT",
    "NodePowerManager",
    "PAPER_BASELINE_BSLD",
    "PAPER_BETA",
    "PAPER_GEAR_SET",
    "POLICIES",
    "POWER_MODELS",
    "PolicySpec",
    "PowerCapController",
    "PowerModel",
    "PowerTelemetrySampler",
    "QuotaPolicy",
    "Registry",
    "RegistryError",
    "ReproServer",
    "ResultAggregates",
    "RunSpec",
    "SCHEDULERS",
    "SLEEP_POLICIES",
    "Scheduler",
    "SchedulerConfig",
    "ServeClient",
    "ServeError",
    "SessionCancelled",
    "SleepPolicy",
    "Simulation",
    "SimulationResult",
    "SimulationSession",
    "SpecFailure",
    "SpecValidationError",
    "SweepManifest",
    "SweepReport",
    "TRACE_MODELS",
    "UtilizationTriggeredPolicy",
    "WORKLOAD_NAMES",
    "WORKLOAD_SOURCES",
    "bounded_slowdown",
    "generate_workload",
    "load_workload",
    "normalize_spec",
    "predicted_bsld",
    "read_swf",
    "run_sweep",
    "write_swf",
    "__version__",
]
