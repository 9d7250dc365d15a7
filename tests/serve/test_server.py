"""End-to-end tests for the ``repro serve`` daemon.

Everything here exercises the real stack — a background
:class:`ReproServer` on an ephemeral port, spoken to over actual HTTP
by :class:`ServeClient` — because the contract under test is the wire:
byte-identity with in-process runs, single-flight dedup, streaming
telemetry, and the structured error schema.
"""

import http.client
import json
import logging
import socket
import threading
import time

import pytest

from repro.api import Simulation
from repro.experiments.config import InstrumentSpec, PolicySpec, RunSpec
from repro.serialize import FORMAT_VERSION, result_to_dict, spec_key, spec_to_dict
from repro.serve import server as server_module
from repro.serve.client import ServeClient
from repro.serve.protocol import END_OF_STREAM, ServeError
from repro.serve.quotas import QuotaPolicy
from repro.serve.server import ReproServer, canonical_result_bytes

SPEC = RunSpec(workload="SDSC", n_jobs=40, seed=5, policy=PolicySpec.power_aware(2.0, 4))
#: Enough events that a slice_events=1 server is reliably still running
#: when a cancel or budget check lands.
LONG_SPEC = RunSpec(workload="SDSC", n_jobs=4000, seed=1)


def expected_bytes(spec: RunSpec) -> bytes:
    """The in-process side of the byte-identity contract."""
    return canonical_result_bytes(result_to_dict(Simulation(spec).run()))


@pytest.fixture
def server(tmp_path):
    with ReproServer(cache_dir=str(tmp_path / "cache")) as srv:
        yield srv


@pytest.fixture
def client(server):
    return ServeClient(server.address)


class TestEndToEnd:
    def test_http_result_byte_identical_to_in_process(self, server, client):
        job = client.submit(SPEC)
        assert job["state"] in ("queued", "running", "done")
        assert job["deduped"] is False
        fetched = client.result_bytes(job["job_id"])
        assert fetched == expected_bytes(SPEC)
        # And the decoded object is the exact result.
        assert client.result(job["job_id"]) == Simulation(SPEC).run()

    def test_aggregates_only_fetch(self, server, client):
        job = client.submit(SPEC)
        data = client.result_bytes(job["job_id"], aggregates_only=True)
        assert data == canonical_result_bytes(
            result_to_dict(Simulation(SPEC).run().to_aggregates())
        )
        slim = client.result(job["job_id"], aggregates_only=True)
        assert slim.is_aggregated
        full = client.result(job["job_id"])
        assert not full.is_aggregated
        assert slim.average_bsld() == pytest.approx(full.average_bsld())

    def test_status_reaches_done(self, server, client):
        job_id = client.submit(SPEC)["job_id"]
        final = client.wait(job_id)
        assert final["state"] == "done"
        assert final["from_cache"] is False
        assert final["finished_at"] >= final["submitted_at"]
        assert final["events_recorded"] > 0

    def test_healthz_and_stats(self, server, client):
        import repro

        health = client.health()
        assert health["status"] == "ok"
        assert health["version"] == repro.__version__
        client.submit(SPEC)
        client.wait(client.submit(SPEC)["job_id"])
        stats = client.stats()
        assert stats["accepting"] is True
        assert stats["submissions"] == 1
        assert stats["deduped_submissions"] == 1
        assert stats["simulations_run"] == 1
        assert stats["jobs"]["done"] == 1
        assert stats["quota"]["max_inflight"] == QuotaPolicy().max_inflight

    def test_stats_count_the_worker_plane(self, server, client):
        # Workers start lazily: a daemon that has run nothing has none.
        assert client.stats()["workers"] == {"alive": 0, "started": 0, "replaced": 0}
        client.wait(client.submit(SPEC)["job_id"])
        assert client.stats()["workers"] == {"alive": 1, "started": 1, "replaced": 0}

    def test_unknown_job_is_not_found(self, server, client):
        with pytest.raises(ServeError) as info:
            client.status("job-999999")
        assert info.value.code == "not_found"
        assert info.value.status == 404

    def test_unknown_route_is_not_found(self, server, client):
        with pytest.raises(ServeError) as info:
            client._request("GET", "/teapot")
        assert info.value.code == "not_found"

    def test_invalid_spec_carries_field_path(self, server, client):
        with pytest.raises(ServeError) as info:
            client.submit({"policy": {}})
        assert info.value.code == "invalid_spec"
        assert info.value.status == 400
        assert info.value.field == "policy.kind"
        assert info.value.message == "missing required field"

    def test_invalid_json_body_is_invalid_request(self, server):
        connection = http.client.HTTPConnection(server.host, server.port, timeout=10)
        try:
            connection.request("POST", "/runs", body=b"{not json")
            response = connection.getresponse()
            assert response.status == 400
            payload = json.loads(response.read())
            assert payload["error"]["code"] == "invalid_request"
        finally:
            connection.close()

    def test_submit_after_stop_is_unavailable(self, server):
        server.stop()
        with pytest.raises(ServeError) as info:
            server.submit(SPEC)
        assert info.value.code == "unavailable"


class TestMalformedRequests:
    """Every request the HTTP reader cannot parse gets the structured 400."""

    @pytest.mark.parametrize(
        "request_bytes",
        [
            pytest.param(b"GARBAGE\r\n\r\n", id="request-line"),
            pytest.param(
                b"POST /runs HTTP/1.1\r\nContent-Length: abc\r\n\r\n{}",
                id="content-length-not-an-integer",
            ),
            pytest.param(
                b"POST /runs HTTP/1.1\r\nContent-Length: -5\r\n\r\n{}",
                id="content-length-negative",
            ),
            pytest.param(
                b"GET /" + b"a" * (70 << 10) + b" HTTP/1.1\r\n\r\n",
                id="request-line-over-the-stream-limit",
            ),
        ],
    )
    def test_answers_400_with_the_error_schema(self, server, request_bytes, caplog):
        with caplog.at_level(logging.ERROR, logger="asyncio"):
            with socket.create_connection((server.host, server.port), timeout=10) as sock:
                sock.sendall(request_bytes)
                sock.shutdown(socket.SHUT_WR)
                reply = b""
                while chunk := sock.recv(1 << 16):
                    reply += chunk
            head, _, body = reply.partition(b"\r\n\r\n")
            assert head.startswith(b"HTTP/1.1 400 "), reply[:200]
            assert json.loads(body)["error"]["code"] == "invalid_request"
            # The daemon still answers, and logged no unhandled exception.
            assert ServeClient(server.address).health()["status"] == "ok"
        assert [r.getMessage() for r in caplog.records if r.name == "asyncio"] == []


class TestResultWait:
    def test_wait_wakes_on_completion_rather_than_a_poll(self, monkeypatch):
        # A poll this slow would hold the fetch far past the run's end.
        monkeypatch.setattr(server_module, "_TICK", 60.0)
        with ReproServer() as server:
            client = ServeClient(server.address)
            job_id = client.submit(SPEC)["job_id"]
            start = time.monotonic()
            assert client.result_bytes(job_id) == expected_bytes(SPEC)
            assert time.monotonic() - start < 30.0

    def test_wait_times_out_as_not_ready(self):
        with ReproServer(slice_events=1) as server:
            client = ServeClient(server.address)
            job_id = client.submit(LONG_SPEC)["job_id"]
            with pytest.raises(ServeError) as info:
                client.result_bytes(job_id, timeout=0.05)
            assert info.value.code == "not_ready"
            client.cancel(job_id)


class TestSingleFlight:
    def test_concurrent_submissions_execute_exactly_once(self, server):
        """The acceptance criterion: N concurrent submitters of one
        cache-keyed spec trigger exactly one simulation and all fetch
        byte-identical results."""
        n_clients = 8
        start = threading.Barrier(n_clients)
        outcomes: list[tuple[bool, bytes]] = []
        failures: list[BaseException] = []
        lock = threading.Lock()

        def submit_and_fetch(index: int):
            own = ServeClient(server.address, client_id=f"client-{index}")
            start.wait()
            try:
                job = own.submit(SPEC)
                body = own.result_bytes(job["job_id"])
                with lock:
                    outcomes.append((job["deduped"], body))
            except BaseException as exc:  # surfaced below, not swallowed
                with lock:
                    failures.append(exc)

        threads = [
            threading.Thread(target=submit_and_fetch, args=(i,))
            for i in range(n_clients)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not failures
        assert len(outcomes) == n_clients
        assert server.simulations_run == 1
        bodies = {body for _, body in outcomes}
        assert bodies == {expected_bytes(SPEC)}
        # Exactly one submission won the race; the rest attached to it.
        assert sorted(deduped for deduped, _ in outcomes) == [False] + [True] * 7
        stats = server.stats()
        assert stats["submissions"] == 1
        assert stats["deduped_submissions"] == n_clients - 1

    def test_resubmit_of_done_job_attaches(self, server, client):
        first = client.submit(SPEC)
        client.wait(first["job_id"])
        again = client.submit(SPEC)
        assert again["deduped"] is True
        assert again["job_id"] == first["job_id"]
        assert again["submissions"] == 2
        assert server.simulations_run == 1

    def test_cancelled_key_retries_with_a_fresh_job(self, tmp_path):
        with ReproServer(slice_events=1) as server:
            client = ServeClient(server.address)
            first = client.submit(LONG_SPEC)
            client.cancel(first["job_id"])
            assert client.wait(first["job_id"])["state"] == "cancelled"
            second = client.submit(LONG_SPEC)
            assert second["deduped"] is False
            assert second["job_id"] != first["job_id"]


class TestCacheSharing:
    def test_cache_shared_across_server_restarts(self, tmp_path):
        cache = str(tmp_path / "cache")
        with ReproServer(cache_dir=cache) as first:
            body = ServeClient(first.address).result_bytes(
                ServeClient(first.address).submit(SPEC)["job_id"]
            )
            assert first.simulations_run == 1
        with ReproServer(cache_dir=cache) as second:
            client = ServeClient(second.address)
            job = client.submit(SPEC)
            status = client.wait(job["job_id"])
            assert status["from_cache"] is True
            assert client.result_bytes(job["job_id"]) == body == expected_bytes(SPEC)
            assert second.simulations_run == 0  # zero simulations: served from disk
            assert second.stats()["cache_hits"] == 1

    def test_non_object_cache_entry_is_recomputed(self, tmp_path):
        """An entry that is valid JSON but not an object is corrupt: the
        daemon simulates the spec instead of failing it, every time."""
        cache = tmp_path / "cache"
        cache.mkdir()
        (cache / f"{spec_key(SPEC)}.json").write_text("[]")
        with ReproServer(cache_dir=str(cache)) as server:
            client = ServeClient(server.address)
            job = client.submit(SPEC)
            assert client.result_bytes(job["job_id"]) == expected_bytes(SPEC)
            assert server.simulations_run == 1

    def test_cache_hit_stream_is_sentinel_only(self, tmp_path):
        cache = str(tmp_path / "cache")
        with ReproServer(cache_dir=cache) as first:
            ServeClient(first.address).result_bytes(
                ServeClient(first.address).submit(SPEC)["job_id"]
            )
        with ReproServer(cache_dir=cache) as second:
            client = ServeClient(second.address)
            job_id = client.submit(SPEC)["job_id"]
            client.wait(job_id)
            rows = list(client.stream_events(job_id))
            assert len(rows) == 1
            assert rows[0]["event"] == END_OF_STREAM
            assert rows[0]["state"] == "done"
            assert rows[0]["events"] == 0


class TestResultsLiveInTheCache:
    """With a cache dir, a finished job holds no result bytes: every
    fetch reads them back from the job's cache entry."""

    def test_no_done_job_holds_result_bytes(self, tmp_path):
        cache = str(tmp_path / "cache")
        aggregates = canonical_result_bytes(
            result_to_dict(Simulation(SPEC).run().to_aggregates())
        )
        for life in ("fresh", "cache hit"):
            with ReproServer(cache_dir=cache) as server:
                client = ServeClient(server.address)
                job_id = client.submit(SPEC)["job_id"]
                assert client.result_bytes(job_id) == expected_bytes(SPEC)
                assert client.result_bytes(job_id) == expected_bytes(SPEC)
                assert client.result_bytes(job_id, aggregates_only=True) == aggregates
                dedup = client.submit(SPEC)
                assert dedup["deduped"] is True and dedup["job_id"] == job_id
                assert client.result_bytes(job_id) == expected_bytes(SPEC)
                job = server._jobs[job_id]
                assert job.from_cache is (life == "cache hit")
                assert job.state == "done" and job.result_bytes is None
                assert not server._active

    def test_a_lost_entry_is_a_structured_error_and_the_spec_reruns(self, server, client, tmp_path):
        job_id = client.submit(SPEC)["job_id"]
        client.wait(job_id)
        (tmp_path / "cache" / f"{spec_key(SPEC)}.json").unlink()
        for aggregates_only in (False, True):
            with pytest.raises(ServeError) as info:
                client.result_bytes(job_id, aggregates_only=aggregates_only)
            assert info.value.code == "server_error"
            assert "cache entry" in info.value.message
        again = client.submit(SPEC)
        assert again["deduped"] is False and again["job_id"] != job_id
        assert client.result_bytes(again["job_id"]) == expected_bytes(SPEC)
        assert server.simulations_run == 2

    def test_a_changed_entry_is_a_structured_error(self, server, client, tmp_path):
        job_id = client.submit(SPEC)["job_id"]
        client.wait(job_id)
        entry = tmp_path / "cache" / f"{spec_key(SPEC)}.json"
        entry.write_bytes(entry.read_bytes()[:-2] + b"}")  # one result byte short
        with pytest.raises(ServeError) as info:
            client.result_bytes(job_id)
        assert info.value.code == "server_error"

    def test_a_cache_hit_in_another_layout_is_served_canonically(self, tmp_path):
        cache = tmp_path / "cache"
        cache.mkdir()
        document = {
            "version": FORMAT_VERSION,
            "spec": spec_to_dict(SPEC),
            "result": result_to_dict(Simulation(SPEC).run()),
        }
        (cache / f"{spec_key(SPEC)}.json").write_text(json.dumps(document, indent=2))
        with ReproServer(cache_dir=str(cache)) as server:
            client = ServeClient(server.address)
            job_id = client.submit(SPEC)["job_id"]
            assert client.wait(job_id)["from_cache"] is True
            assert client.result_bytes(job_id) == expected_bytes(SPEC)
            assert server._jobs[job_id].result_bytes is None
            assert server.simulations_run == 0


class TestCancelAndBudget:
    def test_cancel_stops_a_running_job(self):
        with ReproServer(slice_events=1) as server:
            client = ServeClient(server.address)
            job_id = client.submit(LONG_SPEC)["job_id"]
            ack = client.cancel(job_id)
            assert ack["cancel_requested"] is True
            final = client.wait(job_id)
            assert final["state"] == "cancelled"
            assert final["error"]["code"] == "cancelled"
            with pytest.raises(ServeError) as info:
                client.result(job_id)
            assert info.value.code == "cancelled"
            assert info.value.status == 409
            assert server.simulations_run == 0

    def test_cancel_after_done_is_a_noop(self, server, client):
        job_id = client.submit(SPEC)["job_id"]
        client.wait(job_id)
        ack = client.cancel(job_id)
        assert ack["cancel_requested"] is False
        assert client.result_bytes(job_id) == expected_bytes(SPEC)

    def test_wall_clock_budget_fails_the_run(self):
        quota = QuotaPolicy(max_wall_seconds=0.01)
        with ReproServer(slice_events=1, quota=quota) as server:
            client = ServeClient(server.address)
            job_id = client.submit(LONG_SPEC)["job_id"]
            final = client.wait(job_id)
            assert final["state"] == "failed"
            assert final["error"]["code"] == "quota_exceeded"
            with pytest.raises(ServeError) as info:
                client.result(job_id)
            assert info.value.code == "quota_exceeded"

    def test_max_inflight_refuses_with_429(self):
        quota = QuotaPolicy(max_inflight=1)
        with ReproServer(slice_events=1, max_workers=1, quota=quota) as server:
            client = ServeClient(server.address)
            first = client.submit(LONG_SPEC)
            other = RunSpec(workload="SDSC", n_jobs=4000, seed=2)
            with pytest.raises(ServeError) as info:
                client.submit(other)
            assert info.value.code == "quota_exceeded"
            assert info.value.status == 429
            # A dedup hit on the in-flight key is free, quota or not.
            assert client.submit(LONG_SPEC)["deduped"] is True
            client.cancel(first["job_id"])
            client.wait(first["job_id"])
            # The slot came back: a fresh spec is admitted now.
            assert client.submit(SPEC)["deduped"] is False


class TestTelemetryStream:
    def test_stream_matches_event_trace_recording(self, server, client):
        job_id = client.submit(SPEC)["job_id"]
        rows = list(client.stream_events(job_id))
        sentinel = rows.pop()
        assert sentinel["event"] == END_OF_STREAM
        assert sentinel["state"] == "done"
        assert sentinel["events"] == len(rows)
        assert sentinel["events_dropped"] == 0
        recorded = (
            Simulation(SPEC.with_instruments(InstrumentSpec.of("event_trace")))
            .run()
            .instrument("event_trace")["events"]
        )
        assert rows == recorded

    def test_replay_buffer_bounded_by_quota(self):
        quota = QuotaPolicy(max_events=5)
        with ReproServer(quota=quota) as server:
            client = ServeClient(server.address)
            job_id = client.submit(SPEC)["job_id"]
            status = client.wait(job_id)
            assert status["events_recorded"] == 5
            assert status["events_dropped"] > 0
            rows = list(client.stream_events(job_id))
            assert len(rows) == 6  # 5 buffered rows + sentinel
            assert rows[-1]["events_dropped"] == status["events_dropped"]

    def test_sse_format(self, server, client):
        job_id = client.submit(SPEC)["job_id"]
        client.wait(job_id)
        connection = http.client.HTTPConnection(server.host, server.port, timeout=30)
        try:
            connection.request("GET", f"/runs/{job_id}/events?format=sse")
            response = connection.getresponse()
            assert response.status == 200
            assert response.getheader("Content-Type") == "text/event-stream"
            frames = [
                line for line in response.read().split(b"\n") if line.startswith(b"data: ")
            ]
            rows = [json.loads(frame[len(b"data: ") :]) for frame in frames]
            assert rows[-1]["event"] == END_OF_STREAM
            assert len(rows) == rows[-1]["events"] + 1
        finally:
            connection.close()
