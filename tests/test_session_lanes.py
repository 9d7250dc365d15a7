"""Sessions on the fused core: lane-vs-lane identity, probes, steering.

A session picks its core the way ``Simulation.run()`` picks a lane, so an
observed or served run executes on the fused core wherever it covers the
spec.  Everything an observer can see must then be byte-equal to what
the reference core shows it: the lifecycle rows an ``EventTraceRecorder``
keeps, the ``power_telemetry`` and ``bsld_monitor`` reports, the serve
forwarder's NDJSON and its dropped count, the session probes at every
slice boundary, and the result.  Steering moves a fused session to the
reference core mid-run, which must be invisible too.
"""

from __future__ import annotations

import json
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis import sanitize
from repro.api import Simulation
from repro.cluster.machine import Machine
from repro.cluster.power import SleepPolicy
from repro.core.frequency_policy import FixedGearPolicy
from repro.experiments.config import InstrumentSpec, PolicySpec, RunSpec
from repro.instruments import Instrument, build_instruments
from repro.serialize import result_to_dict
from repro.serve.worker import JobSettings, _Runner, _TelemetryForwarder, chunk_ndjson
from repro.sim import columnar
from repro.sim.columnar import fallback_reason
from repro.sim.lanes import ENGINE_ENV
from repro.scheduling.queue import JobQueue
from tests.conftest import workload_strategy

pytest.importorskip("numpy", reason="the fused core needs numpy", exc_type=ImportError)

#: The core an unpinned, covered session runs on in this process: the
#: sanitizer keeps every run on the reference core.
FUSED = "reference" if sanitize.enabled() else "columnar"

POLICIES = {
    "nodvfs": PolicySpec.baseline(),
    "fixed": PolicySpec(kind="fixed", fixed_frequency=1.7),
    "bsld": PolicySpec.power_aware(2.0, 4),
    "util": PolicySpec(kind="util"),
}

OBSERVERS = (
    InstrumentSpec.of("event_trace"),
    InstrumentSpec.of("power_telemetry"),
    InstrumentSpec.of("bsld_monitor", sample_every=25),
)


def canonical(result) -> str:
    return json.dumps(result_to_dict(result), sort_keys=True)


def probes(session) -> tuple:
    return (
        session.now,
        session.events_processed,
        session.pending_events,
        session.queue_depth,
        session.done,
    )


def drive(session, mode) -> list[tuple]:
    """Slice ``session`` as ``mode`` says; the probes after every slice."""
    seen = [probes(session)]
    if mode == "step":
        while session.step():
            seen.append(probes(session))
    elif mode in ("run_for(1)", "run_for(7)"):
        size = 1 if mode == "run_for(1)" else 7
        while not session.done:
            session.run_for(size)
            seen.append(probes(session))
    elif mode == "run_until":
        session.run_until(session.spec.n_jobs * 150.0)  # mid-trace
        seen.append(probes(session))
        session.run_for(5)
        seen.append(probes(session))
    return seen


class ProbeLog(Instrument):
    """Reads every context probe at every lifecycle event."""

    observes_only = True

    def __init__(self) -> None:
        super().__init__()
        self.rows: list[tuple] = []

    def on_event(self, event) -> None:
        context = self.context
        self.rows.append(
            (
                type(event).__name__,
                context.now,
                context.queue_depth,
                context.busy_cpus,
                context.asleep_cpus,
                context.gear_cap,
                context.instantaneous_power(),
            )
        )


class Observed:
    """Both lanes' view of one spec: forwarder chunks, probes, result."""

    def __init__(self, spec: RunSpec, engine: str, mode: str, max_events: int) -> None:
        self.forwarder = _TelemetryForwarder(max_events)
        self.probe_log = ProbeLog()
        session = Simulation(spec.with_engine(engine)).session(
            instruments=[self.forwarder, self.probe_log]
        )
        self.engine = session.engine
        self.probes = drive(session, mode)
        self.chunks = [self.forwarder.flush()]
        self.result = session.result()
        self.chunks.append(self.forwarder.flush())

    @property
    def ndjson(self) -> bytes:
        return b"".join(chunk_ndjson(chunk) for chunk, rows in self.chunks if rows)

    def view(self) -> tuple:
        reports = tuple(r for r in self.result.instruments if r.name != self.forwarder.name)
        return (
            self.probes,
            self.probe_log.rows,
            self.ndjson,
            self.forwarder.dropped,
            canonical(replace(self.result, instruments=reports)),
        )


def stream_length(spec: RunSpec) -> int:
    traced = Simulation(spec.with_engine("reference")).run()
    return traced.instrument("event_trace")["recorded"]


MODES = ["step", "run_for(1)", "run_for(7)", "run_until", "result"]


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("policy", sorted(POLICIES))
@pytest.mark.parametrize("scheduler", ["easy", "fcfs"])
@pytest.mark.parametrize("workload", ["SDSC", "CTC"])
def test_observed_sessions_identical_across_lanes(workload, scheduler, policy, mode):
    spec = RunSpec(
        workload=workload,
        n_jobs=150,
        seed=3,
        scheduler=scheduler,
        policy=POLICIES[policy],
        instruments=OBSERVERS,
    )
    reference = Observed(spec, "reference", mode, max_events=10_000)
    fused = Observed(spec, "columnar", mode, max_events=10_000)
    assert (reference.engine, fused.engine) == ("reference", FUSED)
    assert fused.view() == reference.view()


@pytest.mark.parametrize("margin", [-1, 0, 1], ids=["below", "equal", "above"])
@pytest.mark.parametrize("mode", ["run_for(7)", "result"])
def test_forwarder_truncation_identical_across_lanes(margin, mode):
    spec = RunSpec(workload="SDSC", n_jobs=150, seed=4, policy=POLICIES["bsld"])
    events = stream_length(spec.with_instruments(InstrumentSpec.of("event_trace")))
    max_events = events + margin * (events // 3)
    reference = Observed(spec, "reference", mode, max_events)
    fused = Observed(spec, "columnar", mode, max_events)
    assert fused.view() == reference.view()
    assert fused.forwarder.dropped == max(events - max_events, 0)


@given(
    jobs=workload_strategy(max_jobs=30, max_cpus=8),
    policy=st.sampled_from(sorted(POLICIES)),
    scheduler=st.sampled_from(["easy", "fcfs"]),
    size=st.integers(min_value=1, max_value=9),
)
@settings(max_examples=40, deadline=None)
def test_observed_sessions_identical_property(jobs, policy, scheduler, size):
    spec = RunSpec(
        workload="SDSC",  # ignored: the trace and machine are injected
        n_jobs=len(jobs),
        scheduler=scheduler,
        policy=POLICIES[policy],
        instruments=OBSERVERS,
    )
    machine = Machine("m", 8)
    views = []
    for engine in ("reference", "columnar"):
        session = Simulation(spec.with_engine(engine), jobs=jobs, machine=machine).session()
        seen = [probes(session)]
        while not session.done:
            session.run_for(size)
            seen.append(probes(session))
        views.append((seen, canonical(session.result())))
    assert views[1] == views[0]


def test_served_20k_run_identical_across_lanes():
    """A deep SDSC queue served through the worker's runner on both
    lanes: saturated arrival batches and queue compaction happen while
    the forwarder observes."""
    if sanitize.enabled():
        pytest.skip("the sanitizer keeps both runs on the reference core")
    spec = RunSpec(workload="SDSC", n_jobs=20_000, seed=1, policy=PolicySpec.power_aware(2.0, None))
    settings = JobSettings.capture(validate=False, max_events=10_000)
    compactions = []
    real_compact = JobQueue._compact

    def counting_compact(queue):
        compactions.append(1)
        real_compact(queue)

    served = {}
    for engine in ("reference", "columnar"):
        runner = _Runner()
        del compactions[:]
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(JobQueue, "_compact", counting_compact)
            _, done, *telemetry, lane, fallback = runner.start(spec.with_engine(engine), settings)
            chunks = [telemetry]
            while not done:
                _, done, *telemetry = runner.slice(5000)
                chunks.append(telemetry)
            _, data, *telemetry = runner.finish()
            chunks.append(telemetry)
        assert (lane, fallback) == (engine, None)
        assert compactions, "the run never compacted its wait queue"
        ndjson = b"".join(chunk_ndjson(chunk) for chunk, rows, _ in chunks if rows)
        served[engine] = (ndjson, chunks[-1][2], data)
    assert served["columnar"] == served["reference"]
    assert served["columnar"][1] > 0  # the stream outgrew max_events


class TestSteering:
    """``set_policy``/``set_gear_cap`` move a fused session to the
    reference core by replaying the events run so far."""

    SPEC = RunSpec(
        workload="SDSC",
        n_jobs=150,
        seed=5,
        policy=PolicySpec.power_aware(2.0, None),
        instruments=(InstrumentSpec.of("event_trace"), InstrumentSpec.of("power_telemetry")),
    )

    @staticmethod
    def steered(engine: str, at: int | None, steer) -> tuple:
        session = Simulation(TestSteering.SPEC.with_engine(engine)).session()
        if at is None:
            session.run_to_completion()
        else:
            session.run_for(at)
        before = session.engine
        steer(session)
        after = session.engine, session.fallback
        return before, after, canonical(session.result())

    @pytest.mark.parametrize("at", [0, 97, None], ids=["event-0", "mid-run", "after-last"])
    @pytest.mark.parametrize(
        "name, steer",
        [
            ("set_policy", lambda s: s.set_policy(PolicySpec.power_aware(3.0, 4))),
            ("set_policy", lambda s: s.set_policy(FixedGearPolicy())),
            ("set_gear_cap", lambda s: s.set_gear_cap(1.4)),
        ],
        ids=["policy-spec", "built-policy", "gear-cap"],
    )
    def test_steered_fused_session_matches_steered_reference(self, at, name, steer):
        reference = self.steered("reference", at, steer)
        fused = self.steered("columnar", at, steer)
        assert reference[:2] == ("reference", ("reference", None))
        expected = ("reference", name) if FUSED == "columnar" else ("reference", "sanitize")
        assert fused[:2] == (FUSED, expected)
        assert fused[2] == reference[2]

    def test_steering_keeps_instruments_attached(self):
        session = Simulation(self.SPEC).session()
        session.run_for(40)
        recorder = session.instrument("event_trace")
        seen = len(recorder.events)
        session.set_gear_cap(1.4)
        assert len(recorder.events) == seen  # the replay was muted
        session.run_for(10)
        assert len(recorder.events) > seen
        # The instruments' context now reads the reference core.
        context = session.instrument("power_telemetry").context
        assert (context.now, context.queue_depth) == (session.now, session.queue_depth)

    def test_steering_a_finished_session_is_refused(self):
        session = Simulation(self.SPEC).session()
        session.result()
        with pytest.raises(RuntimeError, match="finalised"):
            session.set_gear_cap(1.4)

    def test_power_cap_spec_starts_on_the_reference_core(self):
        spec = replace(self.SPEC, instruments=(InstrumentSpec.of("power_cap", cap=1e9),))
        session = Simulation(spec.with_engine("columnar")).session()
        assert session.engine == "reference"
        if FUSED == "columnar":
            assert session.fallback == "instrument=power_cap"


class _Undeclared(Instrument):
    """An instrument that does not declare it only observes."""


class TestFallbackReasons:
    BASE = RunSpec(workload="SDSC", n_jobs=40, seed=2, policy=PolicySpec.power_aware(2.0, 4))

    @staticmethod
    def reason(spec: RunSpec, instruments=(), **kwargs) -> str | None:
        return fallback_reason(Simulation(spec, **kwargs), instruments)

    @pytest.mark.parametrize(
        "spec, kwargs, expected",
        [
            (BASE, {}, None),
            (BASE, {"validate": True}, "validate"),
            (BASE, {"sanitize": True}, "sanitize"),
            (replace(BASE, scheduler="conservative"), {}, "scheduler=conservative"),
            (
                replace(BASE, policy=PolicySpec.power_aware(2.0, 4, boost_trigger=8)),
                {},
                "boost",
            ),
            (replace(BASE, sleep=SleepPolicy.preset("shutdown")), {}, "sleep"),
            (replace(BASE, record_timeline=True), {}, "timeline"),
        ],
        ids=["covered", "validate", "sanitize", "scheduler", "boost", "sleep", "timeline"],
    )
    def test_first_reason(self, spec, kwargs, expected):
        if sanitize.enabled() and expected != "validate":
            expected = "sanitize"
        assert self.reason(spec, **kwargs) == expected

    def test_instrument_reasons(self):
        assert self.reason(self.BASE, build_instruments(OBSERVERS)) == (
            None if FUSED == "columnar" else "sanitize"
        )
        if FUSED == "columnar":
            assert self.reason(self.BASE, [_Undeclared()]) == "instrument=_Undeclared"
            capped = build_instruments((InstrumentSpec.of("power_cap", cap=1.0),))
            assert self.reason(self.BASE, capped) == "instrument=power_cap"

    def test_numpy_missing_and_empty_trace(self, monkeypatch):
        monkeypatch.delenv(ENGINE_ENV, raising=False)
        if FUSED == "columnar":
            empty = Simulation(self.BASE, jobs=[], machine=Machine("m", 8))
            assert fallback_reason(empty) == "empty-trace"
        monkeypatch.setattr(columnar, "_np", None)
        assert self.reason(self.BASE) == "numpy-missing"
        session = Simulation(self.BASE).session()
        assert (session.engine, session.fallback) == ("reference", "numpy-missing")

    def test_pinned_reference_is_no_fallback(self, monkeypatch):
        monkeypatch.setenv(ENGINE_ENV, "reference")
        session = Simulation(self.BASE).session()
        assert (session.engine, session.fallback) == ("reference", None)
        pinned = Simulation(self.BASE.with_engine("columnar")).session()
        assert pinned.engine == FUSED
