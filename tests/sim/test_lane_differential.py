"""Lane-vs-lane byte-identity differentials.

The columnar lane's whole contract is "same spec, same bytes": for any
spec, running under ``engine="columnar"`` must serialize to exactly the
canonical JSON the reference lane produces — fused-core configurations
and reference-fallback configurations alike.  These tests drive both
lanes over a policy × scheduler grid on pinned traces and over
hypothesis-drawn workloads, comparing full canonical result documents
(per-job outcomes, energy books, accounting) byte for byte.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.api import Simulation
from repro.cluster.machine import Machine
from repro.cluster.power import SleepPolicy
from repro.experiments.config import PolicySpec, RunSpec
from repro.serialize import result_to_dict
from tests.conftest import workload_strategy

pytest.importorskip("numpy", reason="the columnar lane needs numpy", exc_type=ImportError)


def canonical(result) -> str:
    return json.dumps(result_to_dict(result), sort_keys=True)


def assert_lanes_identical(spec: RunSpec, **kwargs) -> None:
    reference = Simulation(spec.with_engine("reference"), **kwargs).run()
    columnar = Simulation(spec.with_engine("columnar"), **kwargs).run()
    assert canonical(reference) == canonical(columnar), (
        f"lane divergence for {spec.label()}"
    )


POLICIES = {
    "nodvfs": PolicySpec.baseline(),
    "fixed-1.7": PolicySpec(kind="fixed", fixed_frequency=1.7),
    "bsld(1.5,NO)": PolicySpec.power_aware(1.5, None),
    "bsld(2,4)": PolicySpec.power_aware(2.0, 4),
    "bsld(3,0)-strict": PolicySpec.power_aware(3.0, 0, strict_top_backfill=True),
    "util": PolicySpec(kind="util"),
}


@pytest.mark.parametrize("scheduler", ["easy", "fcfs"])
@pytest.mark.parametrize("policy_name", sorted(POLICIES))
def test_lanes_identical_fused_grid(scheduler, policy_name):
    """The fused core's whole coverage: schedulers × policy kinds."""
    spec = RunSpec(
        workload="SDSC",
        n_jobs=400,
        seed=3,
        scheduler=scheduler,
        policy=POLICIES[policy_name],
    )
    assert_lanes_identical(spec)


@pytest.mark.parametrize(
    "spec",
    [
        RunSpec(workload="CTC", n_jobs=400, seed=3, policy=PolicySpec.power_aware(2.0, None)),
        RunSpec(
            workload="SDSC", n_jobs=300, seed=5, size_factor=1.5,
            policy=PolicySpec.power_aware(2.0, 4),
        ),
        RunSpec(
            workload="SDSC", n_jobs=300, seed=5, beta=0.3,
            policy=PolicySpec.power_aware(2.0, 4),
        ),
    ],
    ids=["ctc", "size-factor", "beta"],
)
def test_lanes_identical_variants(spec):
    assert_lanes_identical(spec)


@pytest.mark.parametrize(
    "spec, kwargs",
    [
        # Sleep policies, the conservative scheduler and validate mode
        # are outside the fused core: the columnar lane must fall back
        # to the reference core and still match.
        (
            RunSpec(
                workload="SDSC", n_jobs=200, seed=2,
                policy=PolicySpec.power_aware(2.0, None),
                sleep=SleepPolicy.preset("shutdown"),
            ),
            {},
        ),
        (
            RunSpec(
                workload="SDSC", n_jobs=200, seed=2, scheduler="conservative",
                policy=PolicySpec.power_aware(2.0, 4),
            ),
            {},
        ),
        (
            RunSpec(workload="SDSC", n_jobs=200, seed=2, policy=PolicySpec.power_aware(2.0, 4)),
            {"validate": True},
        ),
    ],
    ids=["sleep-fallback", "conservative-fallback", "validate-fallback"],
)
def test_lanes_identical_fallback(spec, kwargs):
    assert_lanes_identical(spec, **kwargs)


@given(
    jobs=workload_strategy(max_jobs=30, max_cpus=8),
    policy_name=st.sampled_from(sorted(POLICIES)),
    scheduler=st.sampled_from(["easy", "fcfs"]),
)
@settings(max_examples=60)
def test_lanes_identical_property(jobs, policy_name, scheduler):
    """Random workloads through both lanes with injected traces."""
    spec = RunSpec(
        workload="SDSC",  # ignored: the trace and machine are injected
        n_jobs=len(jobs),
        scheduler=scheduler,
        policy=POLICIES[policy_name],
    )
    machine = Machine("m", 8)
    reference = Simulation(
        spec.with_engine("reference"), jobs=jobs, machine=machine
    ).run()
    columnar = Simulation(
        spec.with_engine("columnar"), jobs=jobs, machine=machine
    ).run()
    assert canonical(reference) == canonical(columnar)
