"""Tests for the serve wire protocol: errors, states, telemetry rows."""

import json

import pytest

from repro.api import Simulation
from repro.cluster.power import SleepPolicy
from repro.experiments.config import InstrumentSpec, PolicySpec, RunSpec
from repro.serve.protocol import (
    END_OF_STREAM,
    ERROR_CODES,
    EXIT_CODES,
    HTTP_STATUS,
    JOB_STATES,
    TERMINAL_STATES,
    ServeError,
    error_json,
    ndjson_line,
    sse_line,
)
from repro.serve.worker import _TelemetryForwarder, chunk_ndjson
from repro.sim.events import JobFinished, JobStarted, event_row


class TestErrorVocabulary:
    def test_every_code_has_status_and_exit(self):
        assert set(HTTP_STATUS) == ERROR_CODES == set(EXIT_CODES)
        for code in ERROR_CODES:
            assert 400 <= HTTP_STATUS[code] <= 599
            assert 1 <= EXIT_CODES[code] <= 127

    def test_exit_codes_are_distinct(self):
        # Scripts branch on exit codes: two codes may not collide.
        values = list(EXIT_CODES.values())
        assert len(values) == len(set(values))

    def test_stable_contract_values(self):
        # Pinned: renumbering any of these breaks deployed scripts.
        assert HTTP_STATUS["invalid_spec"] == 400 and EXIT_CODES["invalid_spec"] == 3
        assert HTTP_STATUS["quota_exceeded"] == 429 and EXIT_CODES["quota_exceeded"] == 5
        assert HTTP_STATUS["not_found"] == 404
        assert HTTP_STATUS["unavailable"] == 503
        assert EXIT_CODES["server_error"] == 1


class TestServeError:
    def test_payload_round_trip(self):
        original = ServeError("invalid_spec", "missing required field", "policy.kind")
        rebuilt = ServeError.from_payload(original.payload())
        assert rebuilt.code == "invalid_spec"
        assert rebuilt.message == "missing required field"
        assert rebuilt.field == "policy.kind"
        assert rebuilt.status == 400
        assert rebuilt.exit_code == 3

    def test_message_carries_code_and_field(self):
        error = ServeError("not_found", "no such job", "job_id")
        assert "[not_found]" in str(error)
        assert "job_id" in str(error)

    def test_unknown_code_rejected_on_construction(self):
        with pytest.raises(ValueError, match="unknown error code"):
            ServeError("teapot", "short and stout")

    def test_malformed_payload_decodes_to_server_error(self):
        assert ServeError.from_payload({}).code == "server_error"
        assert ServeError.from_payload({"error": "nope"}).code == "server_error"
        foreign = ServeError.from_payload(
            {"error": {"code": "from_the_future", "message": "?"}}
        )
        assert foreign.code == "server_error"

    def test_error_json_is_one_sorted_line(self):
        line = error_json(ServeError("cancelled", "gone"))
        assert "\n" not in line
        payload = json.loads(line)
        assert payload == {
            "error": {"code": "cancelled", "field": None, "message": "gone"}
        }


class TestJobStates:
    def test_terminal_states_are_job_states(self):
        assert TERMINAL_STATES < set(JOB_STATES)
        assert "queued" not in TERMINAL_STATES
        assert "running" not in TERMINAL_STATES
        assert {"done", "failed", "cancelled"} == TERMINAL_STATES


class TestTelemetryRows:
    def test_event_to_wire_carries_all_fields(self):
        event = JobStarted(12.5, 7, 4, 2.3, 1.5)
        row = event_row(event)
        assert row["event"] == "JobStarted"
        assert row["time"] == 12.5
        assert row["job_id"] == 7
        assert set(row) == {"event", "time", "job_id", "size", "frequency", "wait_time"}

    def test_wire_rows_match_event_trace_recorder(self):
        """A streamed row and a recorded row for the same run are the
        same dict — the shapes are interchangeable by construction."""
        spec = RunSpec(
            workload="SDSC",
            n_jobs=40,
            seed=3,
            instruments=(InstrumentSpec.of("event_trace"),),
        )
        recorded = Simulation(spec).run().instrument("event_trace")["events"]
        session = Simulation(spec.with_instruments()).session()
        streamed = []
        session._scheduler.attach_observer(lambda e: streamed.append(event_row(e)))
        session.result()
        assert streamed == recorded

    def test_forwarder_chunks_decode_to_the_recorders_lines(self):
        """The serve forwarder's compact chunks, cut at any slice
        boundary, decode to exactly the NDJSON of the rows an
        ``event_trace`` recording keeps, sleep events included."""
        spec = RunSpec(
            workload="CTC",
            n_jobs=150,
            seed=2,
            policy=PolicySpec.power_aware(2.0, None),
            sleep=SleepPolicy(sleep_after_seconds=600.0, wake_seconds=60.0),
        )
        recorded = (
            Simulation(spec.with_instruments(InstrumentSpec.of("event_trace")))
            .run()
            .instrument("event_trace")["events"]
        )
        assert {"NodesSlept", "NodesWoke"} <= {row["event"] for row in recorded}
        forwarder = _TelemetryForwarder(len(recorded))
        session = Simulation(spec).session(instruments=[forwarder])
        chunks = []
        while not session.done:
            session.run_for(37)
            chunks.append(forwarder.flush())
        session.result()
        chunks.append(forwarder.flush())
        assert sum(rows for _, rows in chunks) == len(recorded)
        streamed = b"".join(chunk_ndjson(chunk) for chunk, rows in chunks if rows)
        assert streamed == b"".join(map(ndjson_line, recorded))

    def test_rows_are_json_serialisable(self):
        row = event_row(JobFinished(2.0, 7, 4, 2.3, 50.0, 50.0, 55.0, 10.0, False))
        assert json.loads(ndjson_line(row)) == row

    def test_ndjson_line_shape(self):
        line = ndjson_line({"event": END_OF_STREAM, "state": "done"})
        assert line.endswith(b"\n") and line.count(b"\n") == 1

    def test_sse_line_shape(self):
        line = sse_line({"event": "ClockTick", "time": 1.0})
        assert line.startswith(b"data: ") and line.endswith(b"\n\n")
        assert json.loads(line[len(b"data: ") :]) == {"event": "ClockTick", "time": 1.0}
