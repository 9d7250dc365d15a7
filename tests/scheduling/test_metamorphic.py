"""Metamorphic relations of the paper's policy: specs that must equal the baseline.

The BSLD-threshold policy lowers a job's gear only when the predicted
BSLD at that gear stays *below* the threshold, and a predicted BSLD is
never below 1 — so a threshold of 1 never reduces a gear, with or
without the wait-queue limit.  A fixed-gear policy pinned at ``Ftop``
is the no-DVFS baseline by construction.  Each of these specs must
therefore reproduce ``PolicySpec.baseline()`` exactly: every outcome,
every energy figure, every aggregate — all but the ``policy`` label.
Each relation is pinned on both lanes with explicit engine pins.
"""

from __future__ import annotations

import json

import pytest

from repro.api import Simulation
from repro.core.gears import PAPER_GEAR_SET
from repro.experiments.config import PolicySpec, RunSpec
from repro.serialize import result_to_dict

EQUIVALENT_TO_BASELINE = {
    "bsld(1,NO)": PolicySpec.power_aware(1.0, None),
    "bsld(1,0)": PolicySpec.power_aware(1.0, 0),
    "fixed-top": PolicySpec(kind="fixed", fixed_frequency=PAPER_GEAR_SET.top.frequency),
}

#: Keyed by (spec, lane): ``RunSpec`` equality ignores the engine pin.
_BASELINES: dict[tuple[RunSpec, str | None], dict[str, str]] = {}


def _document(spec: RunSpec) -> dict[str, str]:
    """Each entry of the canonical result document as JSON, ``policy`` dropped."""
    document = result_to_dict(Simulation(spec).run())
    document.pop("policy")
    return {key: json.dumps(value, sort_keys=True) for key, value in document.items()}


def _baseline(spec: RunSpec) -> dict[str, str]:
    key = (spec, spec.engine)
    if key not in _BASELINES:
        _BASELINES[key] = _document(spec.with_policy(PolicySpec.baseline()))
    return _BASELINES[key]


@pytest.mark.parametrize("relation", sorted(EQUIVALENT_TO_BASELINE))
@pytest.mark.parametrize("engine", ["reference", "columnar"])
@pytest.mark.parametrize("workload", ["SDSC", "CTC"])
def test_policy_reproduces_baseline(workload, engine, relation):
    spec = RunSpec(workload=workload, n_jobs=1000, seed=5, engine=engine)
    document = _document(spec.with_policy(EQUIVALENT_TO_BASELINE[relation]))
    baseline = _baseline(spec)
    assert document.keys() == baseline.keys()
    # Name the differing entries rather than diffing megabytes of JSON.
    differing = [key for key in baseline if document[key] != baseline[key]]
    assert not differing, f"{relation} departs from the baseline in {differing}"
