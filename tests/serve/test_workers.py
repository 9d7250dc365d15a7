"""The serve daemon's process worker plane.

Runs execute in simulation worker processes (:mod:`repro.serve.worker`),
not daemon threads.  These tests pin what that must not change — byte
identity, telemetry equal to an ``event_trace`` recording — and what it
adds: two runs truly at once, a lease expiry that kills a wedged worker
and replaces it, a crashed worker replaced rather than reused, and no
worker process (or pipe) outliving its daemon.
Every wait here is bounded, so a regression fails instead of hanging.
"""

import gc
import http.client
import json
import os
import re
import selectors
import signal
import subprocess
import sys
import threading
import time
import warnings
from dataclasses import replace
from pathlib import Path

import pytest

from repro.api import Simulation
from repro.experiments.config import InstrumentSpec, PolicySpec, RunSpec
from repro.serialize import result_to_dict
from repro.serve.client import ServeClient
from repro.serve.protocol import END_OF_STREAM, TERMINAL_STATES, sse_line
from repro.serve.quotas import QuotaPolicy
from repro.serve.server import ReproServer, canonical_result_bytes

SPEC = RunSpec(workload="SDSC", n_jobs=40, seed=5, policy=PolicySpec.power_aware(2.0, 4))
#: Long enough (in 20-event slices) that two of them overlap on a
#: two-worker daemon, short enough to stay cheap under the sanitizer.
OVERLAP_SPEC = RunSpec(workload="SDSC", n_jobs=1000, seed=1)
#: Still running when stop() lands (500-event slices).
LONG_SPEC = RunSpec(workload="SDSC", n_jobs=4000, seed=1)
#: One slice of this (all of it, at slice_events=10**6) takes well over
#: half a second: far longer than the lease in the kill test.
WEDGE_SPEC = RunSpec(workload="SDSC", n_jobs=20_000, seed=3)

SRC = str(Path(__file__).resolve().parents[2] / "src")

linux_only = pytest.mark.skipif(
    not Path("/proc/self/stat").exists(), reason="reads process state from /proc"
)

_EXPECTED: dict[RunSpec, bytes] = {}


def expected_bytes(spec: RunSpec) -> bytes:
    """The in-process side of the byte-identity contract (memoised)."""
    if spec not in _EXPECTED:
        _EXPECTED[spec] = canonical_result_bytes(result_to_dict(Simulation(spec).run()))
    return _EXPECTED[spec]


def recorded_rows(spec: RunSpec) -> list[dict]:
    """The in-process ``event_trace`` recording the stream must equal."""
    traced = Simulation(spec.with_instruments(InstrumentSpec.of("event_trace"))).run()
    return traced.instrument("event_trace")["events"]


def wait_until(predicate, timeout: float, what: str) -> None:
    deadline = time.monotonic() + timeout
    while not predicate():
        if time.monotonic() >= deadline:
            raise AssertionError(f"timed out after {timeout}s waiting for {what}")
        time.sleep(0.005)


def wait_terminal(job, timeout: float = 60.0):
    wait_until(lambda: job.state in TERMINAL_STATES, timeout, f"{job.job_id} to end")
    return job


def worker_pid(job) -> int | None:
    worker = job.worker  # read once: the job's thread may detach it
    return worker.pid if worker is not None else None


def _stat(pid: int) -> list[str] | None:
    """Fields of ``/proc/<pid>/stat`` after the command name, or None."""
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii", errors="replace") as stat:
            return stat.read().rsplit(")", 1)[1].split()
    except (FileNotFoundError, ProcessLookupError):
        return None


def alive(pid: int) -> bool:
    """Running (a zombie awaiting its reaper does not count)."""
    fields = _stat(pid)
    return fields is not None and fields[0] != "Z"


def descendants(root: int) -> set[int]:
    parents = {}
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            fields = _stat(int(entry))
            if fields is not None:
                parents[int(entry)] = int(fields[1])
    found: set[int] = set()
    frontier = [root]
    while frontier:
        current = frontier.pop()
        for pid, parent in parents.items():
            if parent == current and pid not in found:
                found.add(pid)
                frontier.append(pid)
    return found


class TestConcurrency:
    def test_two_runs_execute_at_once_in_distinct_worker_processes(self):
        specs = [OVERLAP_SPEC, replace(OVERLAP_SPEC, seed=2)]
        with ReproServer(max_workers=2, slice_events=20) as server:
            jobs = [server.submit(spec)[0] for spec in specs]
            overlap: set[int] = set()
            deadline = time.monotonic() + 120.0
            while not all(job.state in TERMINAL_STATES for job in jobs):
                assert time.monotonic() < deadline, "runs did not finish in 120s"
                pids = [worker_pid(job) for job in jobs]
                if all(job.state == "running" for job in jobs) and None not in pids:
                    overlap.update(pids)
                time.sleep(0.002)
            assert len(overlap) == 2, "the two runs never ran at the same moment"
            assert os.getpid() not in overlap
            for job, spec in zip(jobs, specs, strict=True):
                assert job.state == "done"
                assert job.result_bytes == expected_bytes(spec)
            assert server.stats()["workers"] == {"alive": 2, "started": 2, "replaced": 0}


class TestStats:
    def test_stats_answer_while_a_worker_starts(self, monkeypatch):
        # A first start waits out the forkserver's preload; /stats, which
        # the event loop answers inline, must not wait with it.
        from repro.serve import worker as worker_module

        starting = threading.Event()
        real_init = worker_module.SimulationWorker.__init__

        def slow_init(self, context):
            starting.set()
            time.sleep(1.0)
            real_init(self, context)

        monkeypatch.setattr(worker_module.SimulationWorker, "__init__", slow_init)
        with ReproServer(max_workers=1) as server:
            job, _ = server.submit(SPEC)
            assert starting.wait(30.0)
            began = time.monotonic()
            workers = server.stats()["workers"]
            assert time.monotonic() - began < 0.5
            assert workers == {"alive": 0, "started": 0, "replaced": 0}
            wait_terminal(job)
            assert job.state == "done"


class TestStress:
    def test_more_runs_than_cores_keep_every_book_balanced(self):
        """More worker processes than cores, a dozen concurrent clients
        each streaming its run, and a tiny switch interval: every stream
        and result matches its in-process run, and the pool, quota and
        run counters balance."""
        workers = (os.cpu_count() or 2) + 2
        specs = [replace(SPEC, seed=seed) for seed in range(100, 112)]
        expected = {spec: (recorded_rows(spec), expected_bytes(spec)) for spec in specs}
        outcomes: dict[RunSpec, tuple[list[dict], bytes]] = {}
        failures: list[BaseException] = []
        quota = QuotaPolicy(max_inflight=len(specs))

        def client_run(spec: RunSpec) -> None:
            try:
                client = ServeClient(server.address, timeout=60.0)
                job_id = client.submit(spec)["job_id"]
                rows = list(client.stream_events(job_id))[:-1]
                outcomes[spec] = rows, client.result_bytes(job_id)
            except BaseException as exc:  # surfaced below, not swallowed
                failures.append(exc)

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ReproServer(max_workers=workers, slice_events=25, quota=quota) as server:
                threads = [threading.Thread(target=client_run, args=(s,)) for s in specs]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=120.0)
                assert not any(thread.is_alive() for thread in threads)
                stats = server.stats()
                assert server._ledger.snapshot() == {}
        finally:
            sys.setswitchinterval(previous)
        assert failures == []
        assert outcomes == expected
        assert stats["simulations_run"] == len(specs)
        assert stats["jobs"]["done"] == len(specs)
        pool = stats["workers"]
        assert pool["replaced"] == 0
        assert 1 <= pool["started"] == pool["alive"] <= workers


class TestLeaseKill:
    @linux_only
    def test_lease_expiry_mid_slice_kills_and_replaces_the_worker(self):
        quota = QuotaPolicy(lease_seconds=0.15)
        with ReproServer(max_workers=1, slice_events=10**6, quota=quota) as server:
            job, _ = server.submit(WEDGE_SPEC)
            wait_until(lambda: worker_pid(job) is not None, 60.0, "a worker")
            pid = worker_pid(job)
            wait_terminal(job, timeout=60.0)
            assert job.state == "failed"
            assert job.error["code"] == "lease_expired"
            assert server.stats()["lease_expirations"] == 1
            assert server._ledger.snapshot() == {}, "quota slot leaked"
            wait_until(
                lambda: server.stats()["workers"]["replaced"] == 1,
                30.0,
                "the killed worker to be reaped",
            )
            assert not alive(pid)
            follow_up, _ = server.submit(SPEC)
            wait_terminal(follow_up)
            assert follow_up.state == "done"
            assert follow_up.result_bytes == expected_bytes(SPEC)
            assert server.stats()["workers"] == {"alive": 1, "started": 2, "replaced": 1}

    @linux_only
    def test_crashed_worker_fails_its_job_and_is_replaced(self):
        # A death the daemon did not cause: the run fails, and the dead
        # worker must not go back to the pool for the next job to hit.
        with ReproServer(max_workers=1, slice_events=500) as server:
            job, _ = server.submit(LONG_SPEC)
            wait_until(lambda: worker_pid(job) is not None, 60.0, "a worker")
            pid = worker_pid(job)
            os.kill(pid, signal.SIGKILL)
            wait_terminal(job)
            assert job.state == "failed"
            assert job.error["code"] == "simulation_failed"
            assert "WorkerLost" in job.error["message"]
            assert server._ledger.snapshot() == {}, "quota slot leaked"
            follow_up, _ = server.submit(SPEC)
            wait_terminal(follow_up)
            assert follow_up.state == "done"
            assert follow_up.result_bytes == expected_bytes(SPEC)
            assert server.stats()["workers"] == {"alive": 1, "started": 2, "replaced": 1}


class TestNoLeaks:
    @linux_only
    def test_stop_reaps_every_worker_without_resource_warnings(self):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            server = ReproServer(max_workers=2, slice_events=500).start_in_thread()
            try:
                # One run is mid-flight when stop() lands: shutdown kills
                # its worker instead of waiting out the run.  A second run,
                # finished by then, leaves its worker idle.
                running, _ = server.submit(LONG_SPEC)
                wait_until(lambda: worker_pid(running) is not None, 60.0, "a worker")
                done, _ = server.submit(SPEC)
                wait_terminal(done)
                assert done.state == "done" and running.state == "running"
                pids = server._workers.pids()
                assert len(pids) == 2 and all(alive(pid) for pid in pids)
            finally:
                server.stop()
            assert server.stats()["workers"]["alive"] == 0
            assert running.state == "cancelled"  # closed out, journal-free
            del server, done, running
            gc.collect()
        assert not [pid for pid in pids if alive(pid)]
        leaks = [str(w.message) for w in caught if issubclass(w.category, ResourceWarning)]
        assert leaks == []

    @linux_only
    def test_sigterm_drain_of_cli_daemon_leaves_no_process_behind(self):
        argv = [
            sys.executable, "-m", "repro.cli", "serve", "--port", "0",
            "--max-workers", "2", "--drain-grace", "5",
        ]  # fmt: skip
        env = {**os.environ, "PYTHONPATH": SRC}
        with subprocess.Popen(
            argv, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True, env=env
        ) as daemon:
            try:
                address = _listening_address(daemon, timeout=60.0)
                client = ServeClient(address)
                jobs = [client.submit(spec)["job_id"] for spec in (SPEC, replace(SPEC, seed=6))]
                for job_id in jobs:
                    assert client.wait(job_id, timeout=60.0)["state"] == "done"
                assert client.result_bytes(jobs[0]) == expected_bytes(SPEC)
                workers = client.stats()["workers"]
                family = descendants(daemon.pid)
                # The workers, plus the forkserver they were forked from.
                assert len(family) > workers["alive"] >= 1
                daemon.send_signal(signal.SIGTERM)
                assert daemon.wait(timeout=60.0) == 0
            finally:
                if daemon.poll() is None:
                    daemon.kill()
                    daemon.wait()
        wait_until(
            lambda: not [pid for pid in family if alive(pid)],
            30.0,
            "the daemon's worker plane to exit",
        )


def _listening_address(daemon: subprocess.Popen, timeout: float) -> str:
    assert daemon.stdout is not None
    deadline = time.monotonic() + timeout
    with selectors.DefaultSelector() as selector:
        selector.register(daemon.stdout, selectors.EVENT_READ)
        while time.monotonic() < deadline:
            if not selector.select(timeout=max(0.0, deadline - time.monotonic())):
                break
            line = daemon.stdout.readline()
            if not line:
                break
            match = re.search(r"listening on (\S+)", line)
            if match:
                return match.group(1)
    raise AssertionError(f"daemon never reported its address (rc={daemon.poll()})")


class TestTelemetry:
    def test_stream_matches_recording_at_one_event_per_slice(self):
        with ReproServer(slice_events=1) as server:
            client = ServeClient(server.address)
            job_id = client.submit(SPEC)["job_id"]
            rows = list(client.stream_events(job_id))
        sentinel = rows.pop()
        assert sentinel["event"] == END_OF_STREAM
        assert sentinel["state"] == "done"
        assert sentinel["events_dropped"] == 0
        assert rows == recorded_rows(SPEC)
        assert sentinel["events"] == len(rows)

    def test_truncated_stream_is_the_recordings_prefix(self):
        quota = QuotaPolicy(max_events=25)
        with ReproServer(slice_events=7, quota=quota) as server:
            client = ServeClient(server.address)
            job_id = client.submit(SPEC)["job_id"]
            rows = list(client.stream_events(job_id))
            frames = _sse_frames(server, job_id)
        recorded = recorded_rows(SPEC)
        sentinel = rows.pop()
        assert rows == recorded[:25]
        assert sentinel["events"] == 25
        assert sentinel["events_dropped"] == len(recorded) - 25 > 0
        # SSE re-frames the same rows byte for byte.
        assert frames[:-1] == [sse_line(row) for row in recorded[:25]]
        assert json.loads(frames[-1][len(b"data: ") :]) == sentinel


def _sse_frames(server: ReproServer, job_id: str) -> list[bytes]:
    connection = http.client.HTTPConnection(server.host, server.port, timeout=60)
    try:
        connection.request("GET", f"/runs/{job_id}/events?format=sse")
        body = connection.getresponse().read()
    finally:
        connection.close()
    return [frame + b"\n\n" for frame in body.split(b"\n\n") if frame]


class TestJobSettings:
    def test_workload_cache_setting_travels_with_the_job(self, tmp_path, monkeypatch):
        pytest.importorskip("numpy")
        xl = RunSpec(workload="SDSC", n_jobs=300, seed=4, source="synthetic-xl")
        with ReproServer(max_workers=1) as server:
            # The worker (and the forkserver behind it) exist before the
            # variable is set, so only the job can carry it there.
            first, _ = server.submit(SPEC)
            wait_terminal(first)
            monkeypatch.setenv("REPRO_WORKLOAD_CACHE_DIR", str(tmp_path))
            job, _ = server.submit(xl)
            wait_terminal(job)
            assert job.state == "done", job.error
            assert job.result_bytes == expected_bytes(xl)
            assert server.stats()["workers"]["started"] == 1
        assert list(tmp_path.glob("*.npz")), "the worker ignored the job's cache dir"
