"""End-to-end smoke test for the ``repro serve`` daemon (CI gate).

Three phases, all against real subprocesses (``python -m repro.cli
serve``) on ephemeral ports:

1. **Byte-identity**: submit a small SDSC spec over HTTP, stream its
   telemetry, and assert the fetched result is byte-identical to an
   in-process ``Simulation(spec).run()`` serialised the same way — the
   core simulation-as-a-service contract, exercised through the actual
   process boundary and socket rather than a background thread.  The
   whole stream and its ``events_dropped`` count must equal an
   in-process ``event_trace`` recording of the same spec on the
   reference core, and the job's status must report that the fused
   (``columnar``) core served it; this phase therefore needs numpy.

2. **SIGKILL drill**: start a daemon over a ``--cache-dir``, submit a
   long run, ``SIGKILL -9`` the daemon mid-simulation (no shutdown
   hooks, no drain — the journal gets no goodbye), restart a fresh
   daemon over the same directory, and assert the job is recovered
   under its **original id** and completes **byte-identically**.

3. **Results read back from the cache dir**: a daemon over a
   ``--cache-dir`` keeps a finished job's result only in its cache
   entry.  Two full fetches and an aggregates fetch must be
   byte-identical to in-process encodings, the finished job's event
   stream must equal the reference recording, and once the entry is
   deleted the fetch must answer the structured ``server_error`` (the
   daemon held no copy) and a resubmission must run the spec afresh.

Run with::

    PYTHONPATH=src python scripts/serve_smoke.py

Exits 0 on success, 1 with a diagnostic on any failure.
"""

from __future__ import annotations

import os
import re
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NoReturn

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "src"))

from repro.api import Simulation  # noqa: E402
from repro.experiments.config import InstrumentSpec, RunSpec  # noqa: E402
from repro.serialize import result_to_dict, spec_key  # noqa: E402
from repro.serve.client import ServeClient  # noqa: E402
from repro.serve.protocol import END_OF_STREAM, ServeError  # noqa: E402
from repro.serve.quotas import QuotaPolicy  # noqa: E402
from repro.serve.server import canonical_result_bytes  # noqa: E402

SPEC = RunSpec(workload="SDSC", n_jobs=120, seed=3)
#: Long enough (with --slice-events 500) that SIGKILL reliably lands
#: mid-simulation.
KILL_SPEC = RunSpec(workload="SDSC", n_jobs=4000, seed=1)
STARTUP_TIMEOUT = 30.0


def fail(message: str) -> NoReturn:
    print(f"serve-smoke: FAIL — {message}", file=sys.stderr)
    sys.exit(1)


def wait_for_address(process: subprocess.Popen) -> str:
    """Parse ``listening on host:port`` from the daemon's stdout."""
    deadline = time.monotonic() + STARTUP_TIMEOUT
    assert process.stdout is not None
    while time.monotonic() < deadline:
        line = process.stdout.readline()
        if not line:
            fail(f"daemon exited during startup (rc={process.poll()})")
        print(f"serve-smoke: daemon says: {line.rstrip()}")
        match = re.search(r"listening on (\S+:\d+)", line)
        if match:
            return match.group(1)
    fail(f"no listening line within {STARTUP_TIMEOUT}s")
    raise AssertionError("unreachable")


def spawn_daemon(*extra_args: str) -> subprocess.Popen:
    return subprocess.Popen(
        [sys.executable, "-m", "repro.cli", *extra_args, "serve", "--port", "0",
         "--slice-events", "500"],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env={**os.environ, "PYTHONPATH": "src"},
    )


def reap(process: subprocess.Popen) -> None:
    """Wait for a signalled daemon to exit, then close its stdout pipe."""
    try:
        process.wait(timeout=15)
    except subprocess.TimeoutExpired:
        process.kill()
        process.wait()
    assert process.stdout is not None
    process.stdout.close()


def expect_recording(rows: list[dict]) -> None:
    """The streamed rows (sentinel last) must equal an in-process
    reference-core ``event_trace`` recording of :data:`SPEC`."""
    recorder = InstrumentSpec.of("event_trace", limit=QuotaPolicy().max_events)
    recorded = (
        Simulation(SPEC.with_engine("reference").with_instruments(recorder))
        .run()
        .instrument("event_trace")
    )
    if rows[:-1] != recorded["events"]:
        fail(
            f"telemetry stream differs from the in-process reference "
            f"recording ({len(rows) - 1} rows streamed, {recorded['recorded']} recorded)"
        )
    if rows[-1]["events_dropped"] != recorded["dropped"]:
        fail(
            f"events_dropped {rows[-1]['events_dropped']} != the recording's "
            f"{recorded['dropped']}"
        )


def cache_dir_phase() -> None:
    """A finished job's result lives in its cache entry, not the daemon."""
    with tempfile.TemporaryDirectory(prefix="serve-smoke-") as cache_dir:
        process = spawn_daemon("--cache-dir", cache_dir)
        try:
            client = ServeClient(wait_for_address(process), client_id="serve-smoke")
            job_id = client.submit(SPEC)["job_id"]
            final = client.wait(job_id, timeout=120.0)
            if final["state"] != "done":
                fail(f"cache-dir job ended {final['state']!r}: {final['error']}")
            result = Simulation(SPEC).run()
            expected = canonical_result_bytes(result_to_dict(result))
            for fetch in ("first", "second"):
                if client.result_bytes(job_id) != expected:
                    fail(f"{fetch} fetch of a result read back from the cache dir differs")
            aggregates = canonical_result_bytes(result_to_dict(result.to_aggregates()))
            if client.result_bytes(job_id, aggregates_only=True) != aggregates:
                fail("aggregates of a result read back from the cache dir differ")
            expect_recording(list(client.stream_events(job_id)))
            print(
                "serve-smoke: OK — a cache-dir daemon served the result twice, "
                "its aggregates and its stream byte-identically"
            )
            (Path(cache_dir) / f"{spec_key(SPEC)}.json").unlink()
            try:
                client.result_bytes(job_id)
            except ServeError as err:
                if err.code != "server_error":
                    fail(f"a deleted cache entry answered {err.code!r}, not 'server_error'")
            else:
                fail("the daemon still served a result whose cache entry was deleted")
            again = client.submit(SPEC)
            if again["deduped"] or client.result_bytes(again["job_id"]) != expected:
                fail("resubmitting a spec whose entry was deleted did not run it afresh")
            print(
                "serve-smoke: OK — the daemon held no copy of the result; a lost "
                "entry answers server_error and a resubmission re-runs"
            )
        finally:
            process.send_signal(signal.SIGINT)
            reap(process)


def sigkill_drill() -> None:
    """Kill a daemon mid-run; a restart must recover the journalled job."""
    with tempfile.TemporaryDirectory(prefix="serve-smoke-") as cache_dir:
        first = spawn_daemon("--cache-dir", cache_dir)
        address = wait_for_address(first)
        client = ServeClient(address, client_id="serve-smoke")
        job_id = client.submit(KILL_SPEC)["job_id"]
        # Give the worker a moment to be genuinely mid-simulation.
        deadline = time.monotonic() + 10.0
        while client.status(job_id)["state"] == "queued":
            if time.monotonic() >= deadline:
                fail("kill-drill job never started running")
            time.sleep(0.05)
        first.kill()  # SIGKILL: no drain, no journal goodbye
        reap(first)
        print(f"serve-smoke: SIGKILLed daemon with {job_id} mid-run")

        second = spawn_daemon("--cache-dir", cache_dir)
        try:
            address = wait_for_address(second)
            client = ServeClient(address, client_id="serve-smoke")
            try:
                status = client.status(job_id)
            except ServeError as err:
                fail(f"restarted daemon does not know {job_id}: {err}")
            if not status["recovered"]:
                fail(f"{job_id} present but not flagged recovered: {status}")
            final = client.wait(job_id, timeout=120.0)
            if final["state"] != "done":
                fail(f"recovered job ended {final['state']!r}: {final['error']}")
            fetched = client.result_bytes(job_id)
            expected = canonical_result_bytes(
                result_to_dict(Simulation(KILL_SPEC).run())
            )
            if fetched != expected:
                fail(
                    f"recovery byte-identity broken: recovered result is "
                    f"{len(fetched)} bytes, in-process {len(expected)} bytes"
                )
            print(
                f"serve-smoke: OK — restart recovered {job_id} byte-identically "
                f"({len(fetched)} bytes)"
            )
        finally:
            second.send_signal(signal.SIGINT)
            reap(second)


def main() -> int:
    process = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve", "--port", "0"],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env={**os.environ, "PYTHONPATH": "src"},
    )
    try:
        address = wait_for_address(process)
        client = ServeClient(address, client_id="serve-smoke")

        health = client.health()
        print(f"serve-smoke: healthz ok (version {health['version']})")

        job = client.submit(SPEC)
        job_id = job["job_id"]
        print(f"serve-smoke: submitted {job_id} (state: {job['state']})")

        rows = list(client.stream_events(job_id))
        sentinel = rows[-1]
        if sentinel.get("event") != END_OF_STREAM:
            fail(f"stream did not end with the sentinel: {sentinel!r}")
        if sentinel["state"] != "done":
            fail(f"job ended {sentinel['state']!r}, expected 'done'")
        telemetry = len(rows) - 1
        if telemetry < 1:
            fail("streamed zero telemetry events before the sentinel")
        print(f"serve-smoke: streamed {telemetry} telemetry events + sentinel")

        expect_recording(rows)
        status = client.status(job_id)
        if status["engine"] != "columnar":
            fail(
                f"served run used engine {status['engine']!r} (fallback "
                f"{status['fallback']!r}), expected 'columnar'"
            )
        print(
            "serve-smoke: OK — stream equals the reference-core recording, "
            "served on the columnar core"
        )

        fetched = client.result_bytes(job_id)
        expected = canonical_result_bytes(result_to_dict(Simulation(SPEC).run()))
        if fetched != expected:
            fail(
                f"byte-identity broken: HTTP result is {len(fetched)} bytes, "
                f"in-process run serialises to {len(expected)} bytes"
            )
        print(
            f"serve-smoke: OK — HTTP result byte-identical to the in-process "
            f"run ({len(fetched)} bytes)"
        )
    finally:
        process.send_signal(signal.SIGINT)
        reap(process)
    sigkill_drill()
    cache_dir_phase()
    return 0


if __name__ == "__main__":
    sys.exit(main())
