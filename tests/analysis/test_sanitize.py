"""The opt-in runtime sanitizer: detection power and zero side effects.

Two properties matter: corrupted engine structures must raise
:class:`SanitizeError` (detection), and a sanitized run must produce
byte-for-byte the results of a plain run (no observer effect).
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis.sanitize import SanitizeError, enable, enabled, require, sanitized
from repro.api import Simulation
from repro.cluster.power import NodePowerManager, SleepPolicy
from repro.cluster.profile import AvailabilityProfile
from repro.experiments.config import PolicySpec, RunSpec
from repro.scheduling.job import Job
from repro.scheduling.queue import JobQueue
from repro.sim.engine import Engine
from repro.sim.events import EventKind, EventQueue

REPO_ROOT = Path(__file__).resolve().parents[2]


def make_job(job_id=1, submit=0.0, runtime=10.0, requested=20.0, size=2):
    return Job(
        job_id=job_id,
        submit_time=submit,
        runtime=runtime,
        requested_time=requested,
        size=size,
    )


# -- the switch ----------------------------------------------------------------
class TestSwitch:
    def test_enable_round_trip(self):
        before = enabled()
        try:
            enable(True)
            assert enabled()
            enable(False)
            assert not enabled()
        finally:
            enable(before)

    def test_sanitized_context_restores_prior_state(self):
        before = enabled()
        with sanitized():
            assert enabled()
        assert enabled() == before

    @pytest.mark.parametrize(
        "value,expect",
        [("1", True), ("true", True), ("ON", True), ("0", False), ("", False)],
    )
    def test_env_variable_controls_the_default(self, value, expect):
        proc = subprocess.run(
            [
                sys.executable,
                "-c",
                "from repro.analysis.sanitize import enabled; print(enabled())",
            ],
            capture_output=True,
            text=True,
            cwd=REPO_ROOT,
            env={
                **os.environ,
                "REPRO_SANITIZE": value,
                "PYTHONPATH": str(REPO_ROOT / "src"),
            },
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == str(expect)

    def test_require_raises_sanitize_error(self):
        require(True, "fine")
        with pytest.raises(SanitizeError, match="broken"):
            require(False, "broken")
        assert issubclass(SanitizeError, AssertionError)


# -- detection: corrupt a structure, expect a loud failure ---------------------
class TestDetection:
    def test_event_queue_clean_state_passes(self):
        queue = EventQueue()
        queue.check_consistency()
        for time in (5.0, 1.0, 3.0):
            queue.push(time, EventKind.CONTROL)
        queue.check_consistency()

    def test_event_queue_detects_live_count_drift(self):
        queue = EventQueue()
        queue.push(1.0, EventKind.CONTROL)
        queue._live += 1
        with pytest.raises(SanitizeError, match="live-event count"):
            queue.check_consistency()

    def test_event_queue_detects_heap_corruption(self):
        queue = EventQueue()
        for time in (5.0, 1.0, 3.0):
            queue.push(time, EventKind.CONTROL)
        queue._heap[0], queue._heap[-1] = queue._heap[-1], queue._heap[0]
        with pytest.raises(SanitizeError, match="heap property"):
            queue.check_consistency()

    def test_event_queue_detects_unsorted_run(self):
        queue = EventQueue()
        queue.push_sorted(EventKind.JOB_ARRIVAL, [(1.0, None), (2.0, None)])
        queue._run[0], queue._run[1] = queue._run[1], queue._run[0]
        with pytest.raises(SanitizeError, match="sorted run"):
            queue.check_consistency()

    def test_engine_detects_clock_ahead_of_pending_events(self):
        engine = Engine()
        engine.on(EventKind.CONTROL, lambda now, payload: None)
        engine.schedule(5.0, EventKind.CONTROL)
        engine.check_consistency()
        engine._now = 10.0
        with pytest.raises(SanitizeError, match="precedes"):
            engine.check_consistency()

    def test_profile_clean_state_passes(self):
        profile = AvailabilityProfile(8)
        profile.reserve(0.0, 10.0, 3)
        profile.check_consistency()

    def test_profile_detects_capacity_violation(self):
        profile = AvailabilityProfile(8)
        profile.reserve(0.0, 10.0, 3)
        profile._free[0] = 20  # free > total_cpus
        with pytest.raises(SanitizeError):
            profile.check_consistency()

    def test_job_queue_clean_state_passes(self):
        queue = JobQueue([make_job(i) for i in (1, 2, 3)])
        queue.check_consistency()

    def test_job_queue_detects_live_count_drift(self):
        queue = JobQueue([make_job(i) for i in (1, 2, 3)])
        queue._live += 1
        with pytest.raises(SanitizeError):
            queue.check_consistency()

    def test_job_queue_detects_size_column_corruption(self):
        queue = JobQueue([make_job(i) for i in (1, 2, 3)])
        queue._sizes[queue._pos[2]] = 99
        with pytest.raises(SanitizeError):
            queue.check_consistency()

    def test_power_manager_clean_state_passes(self):
        manager = NodePowerManager(4, SleepPolicy(sleep_after_seconds=60.0))
        manager.check_consistency(4)

    def test_power_manager_detects_negative_accumulator(self):
        manager = NodePowerManager(4, SleepPolicy(sleep_after_seconds=60.0))
        manager.idle_awake_cpu_seconds = -1.0
        with pytest.raises(SanitizeError):
            manager.check_consistency()

    def test_power_manager_detects_netting_identity_break(self):
        manager = NodePowerManager(4, SleepPolicy(sleep_after_seconds=60.0))
        # All four processors idle: the stack must net to free_cpus.
        with pytest.raises(SanitizeError):
            manager.check_consistency(3)


# -- no observer effect --------------------------------------------------------
class TestTransparency:
    SPEC = RunSpec(workload="CTC", n_jobs=80, policy=PolicySpec.power_aware(2.0, 4))

    def test_sanitized_run_matches_plain_run(self):
        plain = Simulation(self.SPEC).run()
        checked = Simulation(self.SPEC, sanitize=True).run()
        assert checked.average_bsld() == plain.average_bsld()
        assert checked.energy.computational == plain.energy.computational
        assert checked.energy.idle == plain.energy.idle
        assert checked.events_processed == plain.events_processed

    def test_sanitized_sleep_run_matches_plain_run(self):
        spec = RunSpec(
            workload="CTC",
            n_jobs=80,
            policy=PolicySpec.power_aware(2.0, 4),
            sleep=SleepPolicy(sleep_after_seconds=120.0),
        )
        plain = Simulation(spec).run()
        checked = Simulation(spec, sanitize=True).run()
        assert checked.average_bsld() == plain.average_bsld()
        assert checked.energy.computational == plain.energy.computational
        assert checked.events_processed == plain.events_processed

    def test_sanitized_conservative_run_matches_plain_run(self):
        spec = RunSpec(
            workload="CTC",
            n_jobs=60,
            scheduler="conservative",
            policy=PolicySpec.power_aware(2.0, 4),
        )
        plain = Simulation(spec).run()
        checked = Simulation(spec, sanitize=True).run()
        assert checked.average_bsld() == plain.average_bsld()
        assert checked.events_processed == plain.events_processed
