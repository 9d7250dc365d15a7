"""The columnar result codec against the per-outcome one.

:func:`repro.serialize.result_to_bytes` writes a column-backed result
straight from its columns, and :func:`repro.serialize.result_from_dict`
decodes a plain outcome list straight into ``OutcomeColumns``.  Neither
may be told apart from the per-outcome codec: the same bytes out, and
the same documents accepted (with equal results) or rejected (with a
``ValueError``, usually a located ``SpecValidationError``).  The
per-outcome decoder is what runs on installs without numpy, so these
tests take it by hiding numpy from the codec.
"""

from __future__ import annotations

import copy
import json
import math
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import repro.serialize as serialize
from repro.api import Simulation
from repro.cluster.power import SleepPolicy
from repro.experiments.config import InstrumentSpec, PolicySpec, RunSpec
from repro.scheduling.columns import OutcomeColumns
from repro.serialize import (
    canonical_result_bytes,
    result_from_dict,
    result_to_bytes,
    result_to_dict,
)

HAVE_NUMPY = serialize._np is not None


def per_outcome_decode(document):
    """``result_from_dict`` with the columnar fast path out of reach."""
    with mock.patch.object(serialize, "_np", None):
        return result_from_dict(document)


POLICIES = st.sampled_from(
    [
        PolicySpec.baseline(),
        PolicySpec.power_aware(1.5, None),
        PolicySpec.power_aware(2.0, 4),
        PolicySpec.power_aware(3.0, 0, strict_top_backfill=True),
        PolicySpec(kind="fixed", fixed_frequency=1.7),
        PolicySpec(kind="util"),
    ]
)
INSTRUMENTS = st.sampled_from(
    [
        (),
        (InstrumentSpec.of("bsld_monitor", sample_every=25),),
        (InstrumentSpec.of("power_telemetry", max_samples=8),),
    ]
)


@given(
    workload=st.sampled_from(["CTC", "SDSC"]),
    n_jobs=st.integers(min_value=1, max_value=90),
    seed=st.integers(min_value=0, max_value=5),
    engine=st.sampled_from(["reference", "columnar"]),
    scheduler=st.sampled_from(["easy", "fcfs", "conservative"]),
    policy=POLICIES,
    sleep=st.sampled_from([None, SleepPolicy(sleep_after_seconds=600.0)]),
    instruments=INSTRUMENTS,
    record_timeline=st.booleans(),
    aggregates_only=st.booleans(),
)
@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_columnar_codec_matches_generic(
    workload, n_jobs, seed, engine, scheduler, policy, sleep, instruments,
    record_timeline, aggregates_only,
):
    spec = RunSpec(
        workload=workload,
        n_jobs=n_jobs,
        seed=seed,
        scheduler=scheduler,
        policy=policy,
        sleep=sleep,
        instruments=instruments,
        record_timeline=record_timeline,
    ).with_engine(engine)
    if engine == "columnar" and not HAVE_NUMPY:
        spec = spec.with_engine("reference")
    result = Simulation(spec).run()
    if aggregates_only:
        result = result.to_aggregates()
    generic = canonical_result_bytes(result_to_dict(result))
    assert result_to_bytes(result) == generic

    document = json.loads(generic)
    columnar = result_from_dict(copy.deepcopy(document))
    per_outcome = per_outcome_decode(document)
    assert columnar == per_outcome == result
    assert result_to_bytes(columnar) == result_to_bytes(per_outcome) == generic
    if HAVE_NUMPY and result.outcomes:
        assert isinstance(columnar.outcomes, OutcomeColumns)
    assert not isinstance(per_outcome.outcomes, OutcomeColumns)


@pytest.mark.skipif(not HAVE_NUMPY, reason="column-backed results need numpy")
@pytest.mark.parametrize("workload", ["CTC", "SDSC"])
@pytest.mark.parametrize("engine", ["columnar", "reference"])
def test_deep_queue_results_take_the_columnar_paths(workload, engine):
    """A few-thousand-job result of either lane decodes into columns and
    re-encodes byte-identically."""
    spec = RunSpec(
        workload=workload, n_jobs=2500, seed=1, policy=PolicySpec.power_aware(2.0, 4)
    ).with_engine(engine)
    result = Simulation(spec).run()
    generic = canonical_result_bytes(result_to_dict(result))
    assert result_to_bytes(result) == generic
    decoded = result_from_dict(json.loads(generic))
    assert isinstance(decoded.outcomes, OutcomeColumns)
    assert result_to_bytes(decoded) == generic


# -- the decoder fuzz -------------------------------------------------------------
def _base_document():
    spec = RunSpec(workload="SDSC", n_jobs=40, seed=4, policy=PolicySpec.power_aware(2.0, 4))
    return result_to_dict(Simulation(spec).run())


BASE = json.loads(json.dumps(_base_document()))
N_OUTCOMES = len(BASE["outcomes"])

OUTCOME_KEYS = sorted(BASE["outcomes"][0])
JOB_KEYS = sorted(BASE["outcomes"][0]["job"])
GEAR_KEYS = ["frequency", "voltage"]
TIME_KEYS = ["start_time", "finish_time", "penalized_runtime", "energy"]
JOB_TIME_KEYS = ["submit_time", "runtime", "requested_time"]
ODD_VALUES = st.sampled_from(
    [None, "x", [], {}, True, False, 0, 1, -1, 2**70, 0.5, -0.5, -1.0, 1e308]
)


def _locate(document, where: str, index: int):
    outcome = document["outcomes"][index]
    if where == "outcome":
        return outcome, OUTCOME_KEYS
    if where == "job":
        return outcome["job"], JOB_KEYS
    if where == "gear":
        return outcome["gear"], GEAR_KEYS
    return document["machine"]["gears"][index % len(document["machine"]["gears"])], GEAR_KEYS


@st.composite
def mutations(draw):
    """One single mutation of the base document, as a function."""
    index = draw(st.integers(min_value=0, max_value=N_OUTCOMES - 1))
    kind = draw(
        st.sampled_from(
            ["wrong_type", "delete", "extra_key", "int_time", "unknown_gear", "ulp",
             "equal_ids", "swap", "not_an_object"]
        )
    )  # fmt: skip
    where = draw(st.sampled_from(["outcome", "job", "gear", "machine_gear"]))
    key_index = draw(st.integers(min_value=0, max_value=20))
    value = draw(ODD_VALUES)
    ulp_key = draw(st.sampled_from(["penalized_runtime", "start_time", "finish_time"]))
    time_key = draw(st.sampled_from([*TIME_KEYS, *JOB_TIME_KEYS]))

    def mutate(document):
        outcomes = document["outcomes"]
        outcome = outcomes[index]
        if kind in ("wrong_type", "delete", "extra_key"):
            target, keys = _locate(document, where, index)
            key = keys[key_index % len(keys)]
            if kind == "wrong_type":
                target[key] = value
            elif kind == "delete":
                del target[key]
            else:
                target["unexpected"] = value
        elif kind == "int_time":
            target = outcome["job"] if time_key in JOB_TIME_KEYS else outcome
            target[time_key] = int(target[time_key])
        elif kind == "unknown_gear":
            outcome["gear"] = {"frequency": 9.9, "voltage": 1.5}
        elif kind == "ulp":
            outcome[ulp_key] = math.nextafter(outcome[ulp_key], math.inf)
        elif kind == "equal_ids":
            other = outcomes[index - 1 if index else 1]
            outcome["job"]["job_id"] = other["job"]["job_id"]
        elif kind == "swap":
            other = (index + 1) % N_OUTCOMES
            outcomes[index], outcomes[other] = outcomes[other], outcomes[index]
        else:
            outcomes[index] = value
        return document

    return mutate


def _decode(decoder, document):
    try:
        return decoder(document), None
    except Exception as exc:
        return None, exc


def test_base_document_takes_the_columnar_path():
    decoded = result_from_dict(copy.deepcopy(BASE))
    assert isinstance(decoded.outcomes, OutcomeColumns) == HAVE_NUMPY


@given(mutate=mutations())
@settings(max_examples=400, deadline=None)
def test_decoders_accept_and_reject_the_same_documents(mutate):
    document = mutate(copy.deepcopy(BASE))
    columnar, columnar_error = _decode(result_from_dict, copy.deepcopy(document))
    per_outcome, per_outcome_error = _decode(per_outcome_decode, copy.deepcopy(document))
    for error in (columnar_error, per_outcome_error):
        assert error is None or isinstance(error, ValueError), repr(error)
    assert (columnar_error is None) == (per_outcome_error is None), (
        columnar_error,
        per_outcome_error,
    )
    if columnar_error is None:
        assert columnar == per_outcome
        assert result_to_bytes(columnar) == result_to_bytes(per_outcome)


@pytest.mark.parametrize(
    "mutate",
    [
        lambda d: d["outcomes"][3]["job"].__setitem__("job_id", d["outcomes"][2]["job"]["job_id"]),
        lambda d: d["outcomes"][3].__setitem__("energy", math.ceil(d["outcomes"][3]["energy"])),
        lambda d: d["outcomes"][3]["job"].__setitem__(
            "requested_time", math.ceil(d["outcomes"][3]["job"]["requested_time"])
        ),
        lambda d: d["outcomes"][3].__setitem__("gear", {"frequency": 9.9, "voltage": 1.5}),
        lambda d: d["outcomes"][3].__setitem__(
            "penalized_runtime", math.nextafter(d["outcomes"][3]["penalized_runtime"], 0.0)
        ),
    ],
    ids=["equal-ids", "int-energy", "int-requested-time", "off-ladder-gear", "ulp-penalized"],
)
def test_documents_the_columns_cannot_hold_decode_per_outcome(mutate):
    """Accepted documents the columns would alter fall back, and keep
    every value as the per-outcome decoder does."""
    document = copy.deepcopy(BASE)
    mutate(document)
    decoded = result_from_dict(copy.deepcopy(document))
    assert not isinstance(decoded.outcomes, OutcomeColumns)
    assert decoded == per_outcome_decode(copy.deepcopy(document))
    assert result_to_bytes(decoded) == canonical_result_bytes(document)
