"""Byte-exact golden-trace regression tests.

Each golden fixture is the per-job schedule export
(:func:`repro.scheduling.export.outcomes_to_csv`) of one small pinned
workload under one frequency policy, committed under ``tests/goldens/``.
The simulator is deterministic in its spec, so these files must never
change by a single byte unless the *intended* scheduling behaviour
changes — they are the tripwire that lets hot-path optimisation work
proceed without fidelity risk.

To regenerate after an intentional behaviour change::

    python -m pytest tests/scheduling/test_goldens.py --update-goldens

then inspect the diff and commit the new fixtures together with the
change that explains it.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.api import Simulation
from repro.cluster.power import SleepPolicy
from repro.experiments.config import InstrumentSpec, PolicySpec, RunSpec
from repro.scheduling.export import outcomes_to_csv

GOLDEN_DIR = Path(__file__).resolve().parent.parent / "goldens"

#: 80% of the SDSC-300 no-DVFS peak instantaneous power (model watts) —
#: the runtime-control golden scenario.  The value is pinned so the
#: golden spec (and its cache key) never drifts;
#: ``test_powercap_cap_tracks_nodvfs_peak`` re-measures the peak and
#: asserts the 80% relation still holds.
POWERCAP_SDSC_CAP = 706.5600000000002

#: A full-shutdown sleep policy with a two-minute boot: wake latency
#: visibly perturbs the schedule, so this golden pins the in-engine
#: node-power subsystem end to end (idle detection, wake stalls and the
#: sleep-aware energy books all feed the exported outcome rows).
SLEEP_SDSC_POLICY = SleepPolicy(
    sleep_after_seconds=600.0,
    sleep_power_fraction=0.0,
    wake_energy_idle_seconds=60.0,
    wake_seconds=120.0,
)

#: Two pinned workloads x {no-DVFS baseline, the paper's DVFS(2, NO)},
#: plus the reactive power-capping scenario on SDSC, two node-sleep
#: scenarios on SDSC DVFS(2, NO) and conservative backfilling (the
#: availability-profile planner) on SDSC DVFS(2, NO).  The seed-2 sleep
#: trace pins the backfill scan's wake-delay branches: a backfilled
#: start whose wake stall pushes its estimate past the head's
#: reservation makes the scan re-walk the reservation and re-enumerate
#: its candidates (twice each in this run; seed 1 reaches neither).
GOLDEN_SPECS: dict[str, RunSpec] = {
    "sdsc_300_nodvfs": RunSpec(
        workload="SDSC", n_jobs=300, seed=1, policy=PolicySpec.baseline()
    ),
    "sdsc_300_dvfs2no": RunSpec(
        workload="SDSC", n_jobs=300, seed=1, policy=PolicySpec.power_aware(2.0, None)
    ),
    "sdsc_300_powercap80": RunSpec(
        workload="SDSC",
        n_jobs=300,
        seed=1,
        policy=PolicySpec.baseline(),
        instruments=(InstrumentSpec.of("power_cap", cap=POWERCAP_SDSC_CAP),),
    ),
    "sdsc_300_sleep": RunSpec(
        workload="SDSC",
        n_jobs=300,
        seed=1,
        policy=PolicySpec.power_aware(2.0, None),
        sleep=SLEEP_SDSC_POLICY,
    ),
    "sdsc_200_sleep": RunSpec(
        workload="SDSC",
        n_jobs=200,
        seed=2,
        policy=PolicySpec.power_aware(2.0, None),
        sleep=SLEEP_SDSC_POLICY,
    ),
    "ctc_300_nodvfs": RunSpec(
        workload="CTC", n_jobs=300, seed=1, policy=PolicySpec.baseline()
    ),
    "ctc_300_dvfs2no": RunSpec(
        workload="CTC", n_jobs=300, seed=1, policy=PolicySpec.power_aware(2.0, None)
    ),
    "sdsc_300_conservative": RunSpec(
        workload="SDSC",
        n_jobs=300,
        seed=1,
        scheduler="conservative",
        policy=PolicySpec.power_aware(2.0, None),
    ),
}


def test_powercap_cap_tracks_nodvfs_peak():
    """The pinned cap is exactly 80% of the re-measured no-DVFS peak."""
    spec = GOLDEN_SPECS["sdsc_300_nodvfs"].with_instruments(
        InstrumentSpec.of("power_telemetry")
    )
    result = Simulation(spec).run()
    peak = result.instrument("power_telemetry")["peak_watts"]
    assert POWERCAP_SDSC_CAP == pytest.approx(0.8 * peak, rel=1e-12)


def test_sleep_golden_actually_sleeps_and_stalls():
    """The sleep golden exercises both sides of the subsystem: nodes
    genuinely power down, and wake latency genuinely moves the schedule
    relative to the sleep-free twin."""
    asleep = Simulation(GOLDEN_SPECS["sdsc_300_sleep"]).run()
    awake = Simulation(GOLDEN_SPECS["sdsc_300_dvfs2no"]).run()
    breakdown = asleep.energy.sleep
    assert breakdown is not None
    assert breakdown.asleep_cpu_seconds > 0.0
    assert breakdown.wake_count > 0
    assert breakdown.wake_delayed_jobs > 0
    assert breakdown.wake_delay_seconds_total > 0.0
    assert asleep.outcomes != awake.outcomes  # latency perturbed the schedule
    assert asleep.energy.idle < awake.energy.idle  # and sleeping saved energy


def test_powercap_golden_actually_caps():
    """The capped run visibly forces reduced gears on a no-DVFS policy."""
    result = Simulation(GOLDEN_SPECS["sdsc_300_powercap80"]).run()
    report = result.instrument("power_cap")
    assert report["reductions"] > 0
    assert result.reduced_jobs > 0
    assert report["time_capped"] > 0.0


def render_golden(spec: RunSpec, tmp_path: Path) -> bytes:
    """Simulate ``spec`` on the reference core and return its schedule
    export, byte for byte."""
    result = Simulation(spec.with_engine("reference"), validate=True).run()
    scratch = tmp_path / "export.csv"
    outcomes_to_csv(result, scratch)
    return scratch.read_bytes()


@pytest.mark.parametrize("name", sorted(GOLDEN_SPECS))
def test_golden_trace_byte_stable(name, tmp_path, update_goldens):
    rendered = render_golden(GOLDEN_SPECS[name], tmp_path)
    golden_path = GOLDEN_DIR / f"{name}.csv"
    if update_goldens:
        GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
        golden_path.write_bytes(rendered)
        return
    assert golden_path.exists(), (
        f"missing golden fixture {golden_path}; generate it with "
        f"`python -m pytest {__file__} --update-goldens`"
    )
    golden = golden_path.read_bytes()
    assert rendered == golden, (
        f"{name}: schedule export diverged from the committed golden trace "
        f"({len(rendered)} vs {len(golden)} bytes). If this change is "
        f"intentional, rerun with --update-goldens and commit the diff."
    )


@pytest.mark.parametrize("name", sorted(GOLDEN_SPECS))
def test_golden_trace_byte_stable_columnar(name, tmp_path, update_goldens):
    """The columnar lane reproduces every committed golden, byte for byte.

    The plain goldens render with ``validate=True`` (which the fused
    core does not cover), so this twin renders with validation off and
    the lane pinned to ``columnar`` — the fused core for the plain
    DVFS/no-DVFS specs, the reference fallback for the power-cap and
    sleep specs and for every spec without numpy.  Either way the
    exported bytes must equal the fixture.
    """
    if update_goldens:
        pytest.skip("fixtures are being rewritten by the reference lane in this run")
    spec = GOLDEN_SPECS[name].with_engine("columnar")
    result = Simulation(spec).run()
    scratch = tmp_path / "export.csv"
    outcomes_to_csv(result, scratch)
    rendered = scratch.read_bytes()
    golden = (GOLDEN_DIR / f"{name}.csv").read_bytes()
    assert rendered == golden, (
        f"{name}: columnar lane diverged from the committed golden trace"
    )


def test_goldens_have_expected_shape(update_goldens):
    """Every fixture exists, has a header and one row per job."""
    if update_goldens:
        pytest.skip("fixtures are being rewritten in this run")
    for name, spec in GOLDEN_SPECS.items():
        lines = (GOLDEN_DIR / f"{name}.csv").read_bytes().splitlines()
        assert len(lines) == spec.n_jobs + 1, name
        assert lines[0].startswith(b"job_id,submit_time"), name
