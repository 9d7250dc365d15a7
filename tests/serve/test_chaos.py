"""Deterministic chaos tests for the hardened serve stack.

The acceptance contract: under any scripted fault from
:mod:`repro.faults`, a submission either completes **byte-identical**
to an undisturbed in-process ``Simulation(spec).run()`` or fails with a
**structured error** and a **released quota slot** — never a hang, a
wedged slot, or silent corruption.  And a daemon restarted over the
same ``--cache-dir`` recovers every journaled job byte-identically.

Every fault here is count-triggered from a serializable
:class:`FaultPlan`, so a failing cell reproduces from its parameters
alone.
"""

import threading
import time

import pytest

from repro.api import Simulation
from repro.experiments.config import PolicySpec, RunSpec
from repro.faults import SITES, FAULT_KINDS, FaultPlan, FaultRule, injected
from repro.serialize import result_to_dict, spec_key, spec_to_dict
from repro.serve.client import ServeClient
from repro.serve.journal import RunJournal
from repro.serve.protocol import ERROR_CODES, TERMINAL_STATES, ServeError
from repro.serve.quotas import QuotaPolicy
from repro.serve.server import ReproServer, canonical_result_bytes

SPEC = RunSpec(workload="SDSC", n_jobs=40, seed=5, policy=PolicySpec.power_aware(2.0, 4))
#: Enough events that a small-slice server is reliably mid-run when a
#: crash / drain / watchdog action lands.
LONG_SPEC = RunSpec(workload="SDSC", n_jobs=4000, seed=1)

_EXPECTED: dict[RunSpec, bytes] = {}


def expected_bytes(spec: RunSpec) -> bytes:
    """The in-process side of the byte-identity contract (memoised)."""
    if spec not in _EXPECTED:
        _EXPECTED[spec] = canonical_result_bytes(result_to_dict(Simulation(spec).run()))
    return _EXPECTED[spec]


def wait_terminal(job, timeout: float = 30.0):
    deadline = time.monotonic() + timeout
    while job.state not in TERMINAL_STATES:
        if time.monotonic() >= deadline:
            raise AssertionError(f"job {job.job_id} stuck in {job.state}")
        time.sleep(0.02)
    return job


# -- the chaos matrix ---------------------------------------------------------
@pytest.mark.parametrize("site", sorted(SITES))
@pytest.mark.parametrize("kind", FAULT_KINDS)
def test_chaos_matrix_cell(tmp_path, site, kind):
    """One (site x kind) cell: byte-identity or structured failure.

    Whatever the fault does, the cell must end with the quota slot
    released and a follow-up submission of the same spec completing
    byte-identically — the daemon heals, never wedges.
    """
    plan = FaultPlan.of(
        FaultRule(site, kind, at=1, delay_seconds=0.05, fraction=0.5)
    )
    with injected(plan) as injector:
        with ReproServer(cache_dir=str(tmp_path / "cache")) as server:
            client = ServeClient(
                server.address, retries=4, backoff_base=0.02, backoff_seed=11
            )
            outcome = None
            try:
                job = client.submit(SPEC)
                final = client.wait(job["job_id"], timeout=60.0)
                if final["state"] == "done":
                    assert client.result_bytes(job["job_id"]) == expected_bytes(SPEC)
                    outcome = "byte-identical"
                else:
                    error = final["error"]
                    assert error is not None, "failed job must carry its error"
                    assert error["code"] in ERROR_CODES
                    assert error["message"]
                    outcome = f"structured failure: {error['code']}"
            except ServeError as err:
                # Retries exhausted: still a structured, typed failure.
                assert err.code in ERROR_CODES
                outcome = f"structured error: {err.code}"
            assert outcome is not None

            # The fault the cell scripted actually went off.
            assert injector.fired, f"scripted fault at {site} never armed"

            # Whatever happened, the slot came back ...
            deadline = time.monotonic() + 10.0
            while server._ledger.snapshot() and time.monotonic() < deadline:
                time.sleep(0.02)
            assert server._ledger.snapshot() == {}, "quota slot leaked"

            # ... and the daemon still serves this spec byte-identically
            # (the one scripted fault is already consumed).
            retry = client.submit(SPEC)
            client.wait(retry["job_id"], timeout=60.0)
            assert client.result_bytes(retry["job_id"]) == expected_bytes(SPEC)


# -- restart & recovery -------------------------------------------------------
class TestRestartOverSharedCacheDir:
    def test_cached_results_survive_restart_without_resimulation(self, tmp_path):
        cache = str(tmp_path / "cache")
        with ReproServer(cache_dir=cache) as first:
            client = ServeClient(first.address)
            job = client.submit(SPEC)
            data = client.result_bytes(job["job_id"])
            assert data == expected_bytes(SPEC)
            assert first.simulations_run == 1
        with ReproServer(cache_dir=cache) as second:
            client = ServeClient(second.address)
            job = client.submit(SPEC)
            status = client.wait(job["job_id"])
            assert status["from_cache"] is True
            assert client.result_bytes(job["job_id"]) == expected_bytes(SPEC)
            assert second.simulations_run == 0

    def test_unfinished_job_is_recovered_and_byte_identical(self, tmp_path):
        cache = str(tmp_path / "cache")
        first = ReproServer(cache_dir=cache, slice_events=500).start_in_thread()
        job, _ = first.submit(LONG_SPEC)
        # Let it reach the worker, then die mid-run (stop() here is the
        # in-process stand-in for a crash: in-flight work is journalled
        # as pending, exactly as a SIGKILL would leave it).
        deadline = time.monotonic() + 10.0
        while job.state == "queued" and time.monotonic() < deadline:
            time.sleep(0.01)
        first.stop()
        assert job.state == "cancelled"  # closed out, but NOT journalled terminal

        second = ReproServer(cache_dir=cache).start_in_thread()
        try:
            stats = second.stats()
            assert stats["recovered_jobs"] == 1
            recovered = second._jobs[job.job_id]  # original id preserved
            assert recovered.recovered is True
            wait_terminal(recovered, timeout=120.0)
            assert recovered.state == "done"
            assert recovered.result_bytes == expected_bytes(LONG_SPEC)
            # The id counter resumed past the recovered id.
            fresh, _ = second.submit(SPEC)
            assert fresh.job_id > job.job_id
        finally:
            second.stop()

    def test_recovered_job_with_cached_result_skips_resimulation(self, tmp_path):
        cache = str(tmp_path / "cache")
        # First life: result lands in the cache ...
        with ReproServer(cache_dir=cache) as first:
            client = ServeClient(first.address)
            client.result_bytes(client.submit(SPEC)["job_id"])
        # ... but (say) the terminal journal record was lost to a crash:
        # hand-journal a pending submission for the same spec.
        from repro.api import DEFAULT_N_JOBS, normalize_spec

        normalized = normalize_spec(SPEC, DEFAULT_N_JOBS)
        journal = RunJournal(tmp_path / "cache" / "serve-journal.jsonl")
        journal.record_submitted(
            "job-000042", spec_key(normalized), "ghost", spec_to_dict(normalized)
        )
        with ReproServer(cache_dir=cache) as second:
            recovered = second._jobs["job-000042"]
            wait_terminal(recovered)
            assert recovered.state == "done"
            assert recovered.from_cache is True
            assert recovered.result_bytes == expected_bytes(SPEC)
            assert second.simulations_run == 0

    def test_unjournalable_submission_is_refused_and_leaks_nothing(self, tmp_path):
        plan = FaultPlan.of(FaultRule("journal.append", "crash", at=1))
        with ReproServer(cache_dir=str(tmp_path / "cache")) as server:
            blunt = ServeClient(server.address, retries=0)
            with injected(plan):
                with pytest.raises(ServeError) as excinfo:
                    blunt.submit(SPEC)
            assert excinfo.value.code == "unavailable"
            # Nothing leaked: no job, no quota slot, and the next
            # (unfaulted) submission sails through.
            assert server._ledger.snapshot() == {}
            assert server._jobs == {}
            job = blunt.submit(SPEC)
            assert blunt.result_bytes(job["job_id"]) == expected_bytes(SPEC)


# -- watchdog / leases --------------------------------------------------------
class TestLeaseWatchdog:
    def test_wedged_slice_fails_structured_and_releases_slot(self):
        # A delay fault longer than the lease wedges the first slice;
        # the watchdog must cancel it, fail the job with lease_expired,
        # and free its ledger slot.
        plan = FaultPlan.of(
            FaultRule("worker.slice", "delay", at=2, delay_seconds=2.0)
        )
        quota = QuotaPolicy(lease_seconds=0.25)
        with injected(plan):
            with ReproServer(max_workers=2, slice_events=2000, quota=quota) as server:
                job, _ = server.submit(LONG_SPEC)
                wait_terminal(job, timeout=30.0)
                assert job.state == "failed"
                assert job.error["code"] == "lease_expired"
                assert "lease" in job.error["message"]
                assert server.stats()["lease_expirations"] == 1
                assert server._ledger.snapshot() == {}
        # The follow-up goes to a daemon with the default lease: under
        # REPRO_SANITIZE=1 one healthy 2000-event slice can take longer
        # than the 0.25 s lease above.
        with ReproServer(max_workers=2, slice_events=2000, quota=QuotaPolicy()) as server:
            follow_up, _ = server.submit(SPEC)
            wait_terminal(follow_up)
            assert follow_up.state == "done"
            assert follow_up.result_bytes == expected_bytes(SPEC)

    def test_healthy_runs_never_trip_the_watchdog(self):
        quota = QuotaPolicy(lease_seconds=0.5)
        with ReproServer(slice_events=500, quota=quota) as server:
            job, _ = server.submit(SPEC)
            wait_terminal(job)
            assert job.state == "done"
            assert server.stats()["lease_expirations"] == 0

    def test_infinite_lease_disables_watchdog(self):
        quota = QuotaPolicy(lease_seconds=float("inf"))
        with ReproServer(quota=quota) as server:
            job, _ = server.submit(SPEC)
            wait_terminal(job)
            assert job.state == "done"


# -- load shedding & drain ----------------------------------------------------
class TestLoadShedding:
    def test_high_water_mark_sheds_with_retry_after(self):
        with ReproServer(slice_events=200, shed_inflight=1) as server:
            blunt = ServeClient(server.address, retries=0)
            long_job = blunt.submit(LONG_SPEC)
            with pytest.raises(ServeError) as excinfo:
                blunt.submit(SPEC)
            err = excinfo.value
            assert err.code == "unavailable"
            assert err.status == 503
            assert err.retry_after is not None and err.retry_after > 0
            assert server.stats()["shed_submissions"] == 1
            # Dedup hits stay free even while shedding.
            again = blunt.submit(LONG_SPEC)
            assert again["deduped"] is True
            blunt.cancel(long_job["job_id"])

    def test_retrying_client_rides_out_the_shed(self):
        with ReproServer(slice_events=200, shed_inflight=1) as server:
            patient = ServeClient(
                server.address, retries=6, backoff_base=0.05, backoff_seed=3
            )
            long_job = patient.submit(LONG_SPEC)

            def release():
                time.sleep(0.3)
                patient.cancel(long_job["job_id"])

            releaser = threading.Thread(target=release)
            releaser.start()
            try:
                # Shed at first, admitted once the long job is cancelled.
                job = patient.submit(SPEC)
                assert patient.result_bytes(job["job_id"]) == expected_bytes(SPEC)
            finally:
                releaser.join()

    def test_retry_after_header_reaches_the_wire(self):
        import http.client as http_client

        with ReproServer(slice_events=200, shed_inflight=1) as server:
            blunt = ServeClient(server.address, retries=0)
            long_job = blunt.submit(LONG_SPEC)
            connection = http_client.HTTPConnection(server.host, server.port)
            try:
                connection.request(
                    "POST",
                    "/runs",
                    body=b'{"spec": ' + _spec_json(SPEC) + b"}",
                    headers={"Content-Type": "application/json"},
                )
                response = connection.getresponse()
                assert response.status == 503
                assert int(response.headers["Retry-After"]) >= 1
                response.read()
            finally:
                connection.close()
                blunt.cancel(long_job["job_id"])


class TestGracefulDrain:
    def test_drain_finishes_inflight_work_then_exits(self, tmp_path):
        server = ReproServer(
            cache_dir=str(tmp_path / "cache"), slice_events=500
        ).start_in_thread()
        job, _ = server.submit(LONG_SPEC)
        server.request_drain(grace_seconds=120.0)
        assert server.wait(timeout=120.0), "drain did not stop the server"
        assert job.state == "done"
        assert job.result_bytes == expected_bytes(LONG_SPEC)
        server.stop()
        # Drained-to-done work is journalled terminal: nothing pending.
        journal = RunJournal(tmp_path / "cache" / "serve-journal.jsonl")
        assert journal.recover() == ([], 2)

    def test_drain_refuses_new_submissions(self):
        server = ReproServer(slice_events=500).start_in_thread()
        try:
            job, _ = server.submit(LONG_SPEC)
            server.request_drain(grace_seconds=60.0)
            time.sleep(0.1)  # let the drain callback run on the loop
            with pytest.raises(ServeError) as excinfo:
                server.submit(SPEC)
            assert excinfo.value.code == "unavailable"
            job.cancel_event.set()
        finally:
            server.wait(timeout=60.0)
            server.stop()


class TestStop:
    def test_stop_raises_structured_error_when_thread_wont_die(self):
        server = ReproServer()
        hang = threading.Event()
        zombie = threading.Thread(target=hang.wait, daemon=True)
        zombie.start()
        server._thread = zombie
        try:
            with pytest.raises(RuntimeError, match="failed to stop within"):
                server.stop(timeout=0.05)
        finally:
            hang.set()
            zombie.join()
            server._thread = None


# -- client backoff mechanics -------------------------------------------------
class TestClientBackoff:
    def test_backoff_grows_and_caps(self):
        client = ServeClient(
            "127.0.0.1:1", retries=8, backoff_base=0.1, backoff_max=0.8, backoff_seed=0
        )
        delays = [client._backoff_delay(attempt, None) for attempt in range(8)]
        # Jitter keeps each delay within [cap/2, cap] of its exponential cap.
        for attempt, delay in enumerate(delays):
            cap = min(0.8, 0.1 * 2**attempt)
            assert cap / 2 <= delay <= cap
        assert max(delays) <= 0.8

    def test_backoff_honours_retry_after(self):
        client = ServeClient("127.0.0.1:1", backoff_seed=0)
        assert client._backoff_delay(0, 5.0) == 5.0
        assert client._backoff_delay(0, 10_000.0) == 30.0  # clamped

    def test_seeded_jitter_is_deterministic(self):
        a = ServeClient("127.0.0.1:1", backoff_seed=9)
        b = ServeClient("127.0.0.1:1", backoff_seed=9)
        assert [a._backoff_delay(i, None) for i in range(5)] == [
            b._backoff_delay(i, None) for i in range(5)
        ]

    def test_invalid_retry_config_rejected(self):
        with pytest.raises(ValueError, match="retries"):
            ServeClient("127.0.0.1:1", retries=-1)
        with pytest.raises(ValueError, match="backoff_base"):
            ServeClient("127.0.0.1:1", backoff_base=0.0)

    def test_wait_backs_off_its_polling(self, monkeypatch):
        # Drive wait() against a fake status endpoint and record sleeps.
        client = ServeClient("127.0.0.1:1")
        states = iter(["queued"] * 6 + ["done"])
        monkeypatch.setattr(
            client, "status", lambda job_id: {"state": next(states)}
        )
        sleeps = []
        monkeypatch.setattr(time, "sleep", sleeps.append)
        final = client.wait("job-000001", timeout=60.0)
        assert final["state"] == "done"
        assert sleeps == sorted(sleeps), "poll interval must be non-decreasing"
        assert sleeps[0] < 0.05
        assert max(sleeps) <= 1.0


def _spec_json(spec: RunSpec) -> bytes:
    import json

    return json.dumps(spec_to_dict(spec)).encode("utf-8")
