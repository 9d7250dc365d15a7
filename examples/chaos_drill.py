"""Chaos drill: injected faults, then a SIGKILL, survived on purpose.

Run with::

    python examples/chaos_drill.py

Two acts, both deterministic:

1. **Scripted fault injection.**  A serializable
   :class:`~repro.faults.FaultPlan` crashes the daemon's worker on the
   first simulation slice.  The submission fails with a *structured*
   error (code, message, released quota slot) — and because the fault
   is count-triggered, the very next submission of the same spec runs
   clean and produces bytes identical to an undisturbed in-process run.

2. **The SIGKILL drill.**  A real ``repro-sim serve`` subprocess gets
   ``kill -9`` mid-simulation — no drain, no shutdown hook, nothing.
   Its crash-consistent run journal (an append-only JSONL file beside
   the result cache) still knows the job was admitted, so a fresh
   daemon started over the same ``--cache-dir`` re-admits it under its
   original id and finishes it byte-identically.
"""

import os
import re
import signal
import subprocess
import sys
import tempfile
import time

from repro import ReproServer, RunSpec, ServeClient, Simulation
from repro.faults import FaultPlan, FaultRule, injected
from repro.serialize import result_to_dict
from repro.serve.server import canonical_result_bytes

SPEC = RunSpec(workload="SDSC", n_jobs=200, seed=7)
#: Long enough (with small slices) that SIGKILL lands mid-run.
KILL_SPEC = RunSpec(workload="SDSC", n_jobs=4000, seed=1)


def act_one_scripted_faults() -> None:
    print("— act 1: scripted fault injection —")
    plan = FaultPlan.of(FaultRule("worker.slice", "crash", at=1))
    print(f"plan: {plan.to_json()}")

    expected = canonical_result_bytes(result_to_dict(Simulation(SPEC).run()))
    with injected(plan) as injector:
        with ReproServer() as server:
            client = ServeClient(server.address)

            job_id = client.submit(SPEC)["job_id"]
            failed = client.wait(job_id)
            error = failed["error"]
            print(
                f"{job_id} under fault: state={failed['state']} "
                f"error.code={error['code']!r}"
            )
            assert failed["state"] == "failed"
            assert injector.fired, "the scripted fault went off"
            assert server.stats()["inflight"] == {}, "quota slot released"

            # The fault was the *first* slice only; resubmission heals.
            retry_id = client.submit(SPEC)["job_id"]
            client.wait(retry_id)
            assert client.result_bytes(retry_id) == expected
            print(f"resubmitted as {retry_id}: byte-identical result, daemon healed")


def spawn_daemon(cache_dir: str) -> tuple[subprocess.Popen, str]:
    process = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "--cache-dir", cache_dir,
         "serve", "--port", "0", "--slice-events", "500"],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env={**os.environ, "PYTHONPATH": "src"},
    )
    assert process.stdout is not None
    while True:
        line = process.stdout.readline()
        if not line:
            raise RuntimeError(f"daemon died during startup (rc={process.poll()})")
        match = re.search(r"listening on (\S+:\d+)", line)
        if match:
            return process, match.group(1)


def act_two_sigkill_drill() -> None:
    print("— act 2: SIGKILL and recover —")
    with tempfile.TemporaryDirectory(prefix="chaos-drill-") as cache_dir:
        first, address = spawn_daemon(cache_dir)
        client = ServeClient(address)
        job_id = client.submit(KILL_SPEC)["job_id"]
        while client.status(job_id)["state"] == "queued":
            time.sleep(0.05)
        first.kill()  # SIGKILL: the journal gets no goodbye
        first.wait()
        first.stdout.close()
        print(f"daemon SIGKILLed with {job_id} mid-simulation")

        second, address = spawn_daemon(cache_dir)
        try:
            client = ServeClient(address)
            status = client.status(job_id)
            print(
                f"restarted daemon over the same cache dir: {job_id} is "
                f"{status['state']} (recovered={status['recovered']})"
            )
            final = client.wait(job_id, timeout=120.0)
            assert final["state"] == "done", final
            fetched = client.result_bytes(job_id)
            expected = canonical_result_bytes(
                result_to_dict(Simulation(KILL_SPEC).run())
            )
            assert fetched == expected
            print(
                f"recovered {job_id} finished byte-identical to an in-process "
                f"run ({len(fetched)} bytes)"
            )
        finally:
            second.send_signal(signal.SIGINT)
            second.wait(timeout=15)
            second.stdout.close()


def main() -> None:
    act_one_scripted_faults()
    act_two_sigkill_drill()
    print("chaos drill complete: every fault was survived deterministically")


if __name__ == "__main__":
    main()
