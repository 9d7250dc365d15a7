"""Workload operations in fresh processes, plus the benchmark's untimed helpers.

``run.py`` starts this file as a child so that measured work never
shares a heap with earlier work and every ``VmHWM`` is its own.  Modes:

``run``      one inproc-deep request or one sweep-cached sweep, or the
             whole serve-loopback window; writes a ``--record`` file
``prepare``  build the sweep-cached stash for a seed (and memoise digests)
``digest``   compute reference-lane digests for the specs in a file
``commit``   recompute the default seed's digests into ``digests.json``

A ``run`` child prints "ready" on stdout once its set-up is done, so
the parent can time set-up from process start.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import multiprocessing
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace
from pathlib import Path
from typing import Any, Callable

import oracle
import specs
import tracing
from repro.api import Simulation
from repro.batch import BatchRunner
from repro.experiments.config import RunSpec
from repro.serialize import result_to_dict, spec_from_dict, spec_key, spec_to_dict
from repro.serve.client import ServeClient
from repro.serve.server import canonical_result_bytes

NPROC = len(os.sched_getaffinity(0))
_LISTENING = re.compile(r"listening on (\S+)")


def vmhwm_mib(pid: int | str = "self") -> float:
    """Peak resident set of one process (``VmHWM``), in MiB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM in /proc/{pid}/status")


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def spec_to_bytes(
    spec: RunSpec, tracer: tracing.Tracer | tracing.NullTracer = tracing.NullTracer()
) -> bytes:
    """One request: spec in, canonical result bytes out."""
    result = Simulation(spec).run()
    with tracer.span("serialize.encode"):
        document = result_to_dict(result)
    with tracer.span("serialize.json"):
        return canonical_result_bytes(document)


class Record:
    """What one workload run reports back to ``run.py``."""

    def __init__(self, trace: bool) -> None:
        self.tracer = tracing.Tracer() if trace else None
        self.data: dict[str, Any] = {
            "setup": [],  # seconds per set-up, measured in this process
            "ops": [],  # one entry per timed operation
            "outputs": [],  # [spec_key, sha256] per result produced
            "errors": [],  # one string per failed operation
            "specs": {},  # spec_key -> spec document, for digest checks
            "window_s": 0.0,
            "peak_rss_mib": 0.0,
            "layers": {},
            "env": {"numpy": _numpy_version()},
        }

    def tracer_for(self, index: int) -> tracing.Tracer | tracing.NullTracer:
        """Traced runs trace odd-numbered operations only, so the same run
        also measures the untraced latency that tracing overhead is
        taken against."""
        if self.tracer is not None and index % 2 == 1:
            return self.tracer
        return tracing.NullTracer()

    def output(self, spec: RunSpec, data: bytes) -> None:
        key = spec_key(spec)
        self.data["outputs"].append([key, sha256(data)])
        self.data["specs"][key] = spec_to_dict(spec)

    def op(self, latency: float, jobs: int, nbytes: int, traced: bool) -> None:
        self.data["ops"].append(
            {"latency": latency, "jobs": jobs, "bytes": nbytes, "traced": traced}
        )

    def finish_layers(self, extra: dict[str, float]) -> None:
        """Per-layer metrics per traced operation, plus workload-specific ones."""
        traced = [op for op in self.data["ops"] if op["traced"]]
        if self.tracer is None or not traced:
            return
        layers = tracing.layer_metrics(self.tracer.spans, len(traced), self.tracer.pid)
        layers["serialize.result_bytes"] = _mean([op["bytes"] for op in traced])
        layers.update(extra)
        self.data["layers"] = layers


def _numpy_version() -> str | None:
    try:
        import numpy
    except ImportError:
        return None
    return numpy.__version__


def _ready() -> None:
    print("ready", flush=True)


# -- inproc-deep ------------------------------------------------------------------
def run_inproc(args: argparse.Namespace, record: Record) -> None:
    """One request, after building the spec and warming the lane (set-up)."""
    spec = specs.inproc_spec(args.seed, args.jobs_cap)
    spec_to_bytes(replace(spec, n_jobs=min(spec.n_jobs, 1000)))  # loads every lazy module
    gc.collect()
    _ready()
    tracer = record.tracer_for(args.index)
    with tracing.instrumented(tracer), tracer.span("request", args.index):
        start = time.perf_counter()
        data = spec_to_bytes(spec, tracer)
        latency = time.perf_counter() - start
    record.data["peak_rss_mib"] = vmhwm_mib()
    record.data["window_s"] = latency
    record.output(spec, data)
    record.op(latency, spec.n_jobs, len(data), tracer.enabled)
    record.finish_layers({})


# -- sweep-cached -----------------------------------------------------------------
def run_sweep(args: argparse.Namespace, record: Record) -> None:
    """One ``BatchRunner.run(grid)``; set-up copies the stash into a fresh cache."""
    stash = oracle.stash_dir(args.seed, args.jobs_cap)
    grid = specs.sweep_grid(args.seed, args.jobs_cap)
    cache = Path(tempfile.mkdtemp(dir=oracle.TMP))
    try:
        for entry in stash.iterdir():
            shutil.copyfile(entry, cache / entry.name)
        runner = BatchRunner(max_workers=NPROC, cache_dir=cache)
        gc.collect()
        _ready()
        tracer = record.tracer_for(args.index)
        with tracing.instrumented(tracer, runner), tracer.span("batch.run", args.index) as span:
            tracer.expect_forks(cache, span)
            start = time.perf_counter()
            results = runner.run(grid)
            latency = time.perf_counter() - start
        tracer.collect_spill()
    finally:
        shutil.rmtree(cache, ignore_errors=True)
    record.data["peak_rss_mib"] = vmhwm_mib()
    record.data["window_s"] = latency
    nbytes = 0
    for spec, result in zip(grid, results):
        if result is None:
            record.data["errors"].append(f"sweep: no result for {spec_key(spec)}")
            continue
        data = canonical_result_bytes(result_to_dict(result))
        nbytes += len(data)
        record.output(spec, data)
    record.op(latency, sum(spec.n_jobs for spec in grid), nbytes, tracer.enabled)
    hits, misses = runner.cache_hits, runner.cache_misses
    record.finish_layers(
        {
            "batch.cache_hits": hits,
            "batch.cache_misses": misses,
            "batch.cache_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        }
    )
    if tracer.enabled:
        layers = record.data["layers"]
        layers["batch.parallel_efficiency"] = layers["batch.worker_busy_s"] / (NPROC * latency)


# -- serve-loopback ---------------------------------------------------------------
class Daemon:
    """A ``repro-sim serve`` subprocess on an ephemeral loopback port,
    over a fresh cache dir that :meth:`stop` removes."""

    def __init__(self) -> None:
        self.cache = Path(tempfile.mkdtemp(dir=oracle.TMP))
        self.argv = [
            sys.executable, "-m", "repro.cli", "--cache-dir", str(self.cache),
            "serve", "--port", "0", "--max-workers", str(NPROC),
            # Raised above the client count so no submission is refused.
            "--max-inflight", str(4 * NPROC), "--drain-grace", "5",
        ]  # fmt: skip
        self.proc = subprocess.Popen(
            self.argv, stdout=subprocess.PIPE, stdin=subprocess.DEVNULL, text=True
        )
        killer = threading.Timer(60.0, self.proc.kill)
        killer.start()
        try:
            self.address = self._await_listening()
        finally:
            killer.cancel()

    def _await_listening(self) -> str:
        assert self.proc.stdout is not None
        for line in self.proc.stdout:
            match = _LISTENING.search(line)
            if match:
                return match.group(1)
        self.stop()
        raise RuntimeError(f"daemon exited before listening: {self.argv}")

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.communicate(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.communicate()
        shutil.rmtree(self.cache, ignore_errors=True)


def start_daemon(record: Record) -> Daemon:
    """Set-up: a fresh cache dir and a daemon, timed until "listening on"."""
    start = time.perf_counter()
    daemon = Daemon()
    record.data["setup"].append(time.perf_counter() - start)
    return daemon


def run_serve(args: argparse.Namespace, record: Record) -> None:
    plan = specs.serve_plan(args.seed, args.jobs_cap)
    for _ in range(2):
        start_daemon(record).stop()
    daemon = start_daemon(record)
    record.data["env"]["daemon_argv"] = daemon.argv
    _ready()
    lock = threading.Lock()
    cursor = iter(range(len(plan)))
    timings: dict[str, list[float]] = {"queue_wait": [], "run": []}
    served: dict[str, tuple[RunSpec, float]] = {}

    def client_loop() -> None:
        client = ServeClient(daemon.address, retries=0, timeout=120.0)
        while True:
            with lock:
                index = next(cursor, None) if time.perf_counter() < deadline else None
            if index is None:
                return
            spec = plan[index]
            tracer = record.tracer_for(index)
            start = time.perf_counter()
            try:
                with tracer.span("request", request=index):
                    with tracer.span("serve.submit"):
                        job = client.submit(spec)
                    with tracer.span("serve.fetch"):
                        data = client.result_bytes(job["job_id"])
                end = time.perf_counter()
                status = client.status(job["job_id"]) if tracer.enabled else None
            except Exception as exc:  # every failure is counted, never fatal
                with lock:
                    record.data["errors"].append(f"request {index}: {type(exc).__name__}: {exc}")
                continue
            # Throughput counts what was answered inside the window, so the
            # clients' idle time while the last requests drain is not in it.
            jobs = spec.n_jobs if end <= deadline else 0
            with lock:
                record.output(spec, data)
                record.op(end - start, jobs, len(data), tracer.enabled)
                if status is not None and not job.get("deduped", False):
                    timings["queue_wait"].append(status["started_at"] - status["submitted_at"])
                    timings["run"].append(status["finished_at"] - status["started_at"])
                    served.setdefault(spec_key(spec), (spec, end - start))

    threads = [threading.Thread(target=client_loop) for _ in range(NPROC)]
    try:
        window_start = time.perf_counter()
        deadline = window_start + args.seconds
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        record.data["window_s"] = args.seconds
        stats = ServeClient(daemon.address, retries=0).stats()
        record.data["peak_rss_mib"] = vmhwm_mib(daemon.proc.pid)
    finally:
        daemon.stop()
    if record.tracer is None:
        return
    # In-process spec -> bytes of a few served specs, with the daemon gone.
    overhead = []
    for spec, latency in list(served.values())[:6]:
        start = time.perf_counter()
        spec_to_bytes(spec)
        overhead.append(latency - (time.perf_counter() - start))
    submissions = stats["submissions"] + stats["deduped_submissions"]
    record.finish_layers(
        {
            "serve.queue_wait_s": _median(timings["queue_wait"]),
            "serve.run_s": _median(timings["run"]),
            "serve.overhead_s": _median(overhead),
            "serve.simulations_run": stats["simulations_run"],
            "serve.deduped": stats["deduped_submissions"],
            "serve.dedup_ratio": stats["deduped_submissions"] / submissions if submissions else 0.0,
            "serve.cache_hits": stats["cache_hits"],
            "serve.shed": stats["shed_submissions"],
            "serve.daemon_rss_mib": record.data["peak_rss_mib"],
        }
    )


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def _mean(values: list[float]) -> float:
    return statistics.fmean(values) if values else 0.0


RUNNERS: dict[str, Callable[[argparse.Namespace, Record], None]] = {
    "inproc-deep": run_inproc,
    "sweep-cached": run_sweep,
    "serve-loopback": run_serve,
}


# -- untimed helpers --------------------------------------------------------------
def _reference_digest(spec: RunSpec, cache_dir: Path | None) -> tuple[str, str]:
    """Pool worker: one spec on the reference lane -> (spec_key, sha256).

    The result is encoded and hashed here, so only the digest crosses
    the process boundary; with ``cache_dir`` it is also stored there in
    ``BatchRunner``'s cache format.
    """
    result = Simulation(spec.with_engine("reference")).run()
    if cache_dir is not None:
        BatchRunner(cache_dir=cache_dir).cache_store(spec, result)
    return spec_key(spec), sha256(canonical_result_bytes(result_to_dict(result)))


def reference_digests(jobs: list[tuple[RunSpec, Path | None]]) -> dict[str, str]:
    """Digests of ``(spec, cache_dir)`` jobs, ``NPROC`` at a time."""
    context = multiprocessing.get_context("spawn")
    with ProcessPoolExecutor(max_workers=NPROC, mp_context=context) as pool:
        return dict(pool.map(_reference_digest, *zip(*jobs)))


def prepare(args: argparse.Namespace) -> None:
    """Build the per-seed stash (half the sweep grid as cache entries) and
    memoise the whole grid's digests."""
    stash = oracle.stash_dir(args.seed, args.jobs_cap)
    if stash.is_dir():
        return
    grid = specs.sweep_grid(args.seed, args.jobs_cap)
    half = specs.stash_half(grid)
    build = Path(tempfile.mkdtemp(dir=oracle.TMP))
    for key, value in reference_digests([(s, build if s in half else None) for s in grid]).items():
        oracle.remember(key, value)
    stash.parent.mkdir(parents=True, exist_ok=True)
    os.replace(build, stash)


def digest(args: argparse.Namespace) -> None:
    """Memoise reference digests for the spec documents in ``--specs``."""
    with open(args.specs, encoding="utf-8") as stream:
        spec_list = [spec_from_dict(doc) for doc in json.load(stream)]
    for key, value in reference_digests([(spec, None) for spec in spec_list]).items():
        oracle.remember(key, value)


def commit(args: argparse.Namespace) -> None:
    spec_list = specs.all_specs(args.seed)
    oracle.write_committed(args.seed, reference_digests([(spec, None) for spec in spec_list]))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("run", "prepare", "digest", "commit"))
    parser.add_argument("--workload", choices=RUNNERS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--index", type=int, default=0, help="number of this run's first operation")
    parser.add_argument("--jobs-cap", type=int, default=None)
    parser.add_argument("--record", type=Path)
    parser.add_argument("--specs", type=Path)
    args = parser.parse_args()
    oracle.TMP.mkdir(parents=True, exist_ok=True)
    if args.mode == "prepare":
        prepare(args)
    elif args.mode == "digest":
        digest(args)
    elif args.mode == "commit":
        commit(args)
    else:
        record = Record(bool(args.trace))
        RUNNERS[args.workload](args, record)
        record.data["spans"] = record.tracer.spans if record.tracer is not None else []
        with open(args.record, "w", encoding="utf-8") as out:
            json.dump(record.data, out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
