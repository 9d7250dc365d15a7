"""Parallel-job schedulers: FCFS, EASY backfilling and conservative."""

from repro.scheduling.base import Scheduler, SchedulerConfig
from repro.scheduling.conservative import ConservativeBackfilling
from repro.scheduling.easy import EasyBackfilling
from repro.scheduling.export import outcomes_to_csv, result_summary_row
from repro.scheduling.fcfs import FcfsScheduler
from repro.scheduling.job import Job, JobOutcome, validate_jobs
from repro.scheduling.result import SimulationResult, TimelinePoint

__all__ = [
    "ConservativeBackfilling",
    "EasyBackfilling",
    "FcfsScheduler",
    "Job",
    "JobOutcome",
    "outcomes_to_csv",
    "result_summary_row",
    "Scheduler",
    "SchedulerConfig",
    "SimulationResult",
    "TimelinePoint",
    "validate_jobs",
]
