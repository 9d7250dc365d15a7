"""Engine lanes: automatic choice, pins, spec neutrality, fallback.

The lane contract has three legs, each pinned here:

1. *Resolution* — ``spec.engine`` → ``REPRO_ENGINE`` → automatic
   (``columnar`` when numpy is importable, ``reference`` otherwise), and
   ``Simulation.run()`` dispatches through the resolved
   :data:`~repro.registry.ENGINES` entry.
2. *Neutrality* — which lane runs a spec is execution metadata: cache
   keys, canonical spec JSON, equality and hashing are all identical
   with and without an engine pin, so cached results are shared across
   lanes, and nothing outside the process (a submitted document) can
   choose a lane.
3. *Fallback* — a ``columnar`` pin the fused core cannot serve (here:
   numpy missing) runs the reference core, byte-identically.

The byte-identity of the lanes themselves is pinned by the differential
tests in ``test_lane_differential.py`` and the golden-trace suite.
"""

from __future__ import annotations

import json

import pytest

from repro.api import Simulation
from repro.batch import BatchRunner
from repro.experiments.config import PolicySpec, RunSpec
from repro.registry import ENGINES, RegistryError
from repro.serialize import result_to_dict, spec_from_dict, spec_key, spec_to_dict
from repro.sim.lanes import ENGINE_ENV, resolve_engine_name


def _numpy_available() -> bool:
    try:
        import numpy  # noqa: F401
    except ImportError:
        return False
    return True


SPEC = RunSpec(workload="SDSC", n_jobs=50, seed=7, policy=PolicySpec.power_aware(2.0, 4))


def _canonical(result) -> str:
    return json.dumps(result_to_dict(result), sort_keys=True)


class _Recorder:
    """An ``ENGINES`` entry that notes its lane's name, then delegates."""

    def __init__(self, lane, calls: list[str]) -> None:
        self._lane = lane
        self._calls = calls

    def run(self, simulation):
        self._calls.append(self._lane.name)
        return self._lane.run(simulation)


@pytest.fixture
def dispatched(monkeypatch):
    """The lane names ``Simulation.run()`` dispatched through, in order."""
    monkeypatch.delenv(ENGINE_ENV, raising=False)
    calls: list[str] = []
    lanes = {name: ENGINES.get(name) for name in ENGINES.names()}
    for name, lane in lanes.items():
        ENGINES.add(name, _Recorder(lane, calls), overwrite=True)
    try:
        yield calls
    finally:
        for name, lane in lanes.items():
            ENGINES.add(name, lane, overwrite=True)


class TestResolution:
    def test_both_lanes_registered(self):
        assert "reference" in ENGINES
        assert "columnar" in ENGINES

    def test_default_follows_numpy(self, monkeypatch):
        monkeypatch.delenv(ENGINE_ENV, raising=False)
        expected = "columnar" if _numpy_available() else "reference"
        assert resolve_engine_name(SPEC) == expected

    def test_environment_selects_lane(self, monkeypatch):
        monkeypatch.setenv(ENGINE_ENV, "reference")
        assert resolve_engine_name(SPEC) == "reference"

    def test_spec_beats_environment(self, monkeypatch):
        monkeypatch.setenv(ENGINE_ENV, "reference")
        assert resolve_engine_name(SPEC.with_engine("columnar")) == "columnar"

    def test_unknown_environment_lane_fails(self, monkeypatch):
        monkeypatch.setenv(ENGINE_ENV, "warp-drive")
        with pytest.raises(RegistryError, match="unknown engine 'warp-drive'"):
            Simulation(SPEC).run()

    def test_runspec_rejects_unknown_engine(self):
        with pytest.raises(ValueError, match="unknown engine"):
            RunSpec(workload="SDSC", engine="warp-drive")


class TestAutomaticDispatch:
    """An unpinned spec runs on the fastest lane this interpreter has."""

    @pytest.mark.skipif(not _numpy_available(), reason="needs numpy")
    def test_dispatches_columnar_with_numpy(self, dispatched):
        Simulation(SPEC).run()
        assert dispatched == ["columnar"]

    @pytest.mark.skipif(_numpy_available(), reason="exercises the real numpy-less probe")
    def test_dispatches_reference_without_numpy(self, dispatched):
        Simulation(SPEC).run()
        assert dispatched == ["reference"]

    @pytest.mark.parametrize("engine", ["reference", "columnar"])
    def test_pin_overrides_automatic_choice(self, dispatched, engine):
        Simulation(SPEC.with_engine(engine)).run()
        assert dispatched == [engine]


class TestLaneNeutrality:
    """Engine choice never enters spec identity, bytes, or cache keys."""

    @pytest.mark.parametrize("engine", [None, "reference", "columnar"])
    def test_cache_key_is_lane_free(self, engine):
        assert spec_key(SPEC.with_engine(engine)) == spec_key(SPEC)

    @pytest.mark.parametrize("engine", ["reference", "columnar"])
    def test_canonical_json_is_lane_free(self, engine):
        plain = json.dumps(spec_to_dict(SPEC), sort_keys=True)
        laned = json.dumps(spec_to_dict(SPEC.with_engine(engine)), sort_keys=True)
        assert plain == laned
        assert "engine" not in spec_to_dict(SPEC.with_engine(engine))

    def test_equality_and_hash_are_lane_free(self):
        assert SPEC.with_engine("columnar") == SPEC.with_engine("reference") == SPEC
        assert hash(SPEC.with_engine("columnar")) == hash(SPEC)

    def test_cache_entries_shared_across_lanes(self, tmp_path):
        """A result cached under one lane satisfies the other lane."""
        writer = BatchRunner(cache_dir=tmp_path)
        (first,) = writer.run([SPEC.with_engine("reference")])
        assert writer.cache_misses == 1
        reader = BatchRunner(cache_dir=tmp_path)
        (second,) = reader.run([SPEC.with_engine("columnar")])
        assert reader.cache_hits == 1 and reader.cache_misses == 0
        assert first.outcomes == second.outcomes

    def test_batch_runner_respects_spec_pinned_engine(self, dispatched):
        """The runner keeps a spec's lane pin all the way to dispatch."""
        BatchRunner(max_workers=0).run([SPEC.with_engine("reference")])
        assert dispatched == ["reference"]

    def test_submitted_document_cannot_pin_a_lane(self):
        """A submit document's ``engine`` key is ignored like any unknown key."""
        document = {**spec_to_dict(SPEC), "engine": "reference"}
        assert spec_from_dict(document).engine is None


class TestColumnarFallback:
    """A columnar pin without numpy runs the reference core, byte for byte."""

    def test_columnar_pin_without_numpy_runs_reference(self, monkeypatch):
        import repro.sim.columnar

        monkeypatch.setattr(repro.sim.columnar, "_np", None)
        columnar = Simulation(SPEC.with_engine("columnar")).run()
        reference = Simulation(SPEC.with_engine("reference")).run()
        assert _canonical(columnar) == _canonical(reference)
