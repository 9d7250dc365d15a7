"""The asyncio HTTP/JSON daemon behind ``repro serve``.

Two planes, in separate processes:

* the **asyncio plane** (one event loop in the daemon) parses HTTP/1.1
  requests, answers status/stats instantly, and tails telemetry
  buffers for streaming subscribers;
* the **worker plane** (:mod:`repro.serve.worker`) runs each accepted
  job as a :class:`~repro.session.SimulationSession` in one of at most
  ``max_workers`` long-lived simulation worker processes, so
  concurrent runs do not share the daemon's interpreter lock.  A
  job thread per running job steps its worker in lockstep, one pipe
  round trip per ``run_for`` slice, and checks the job's cancel flag,
  wall-clock budget and progress lease at every slice boundary.  A
  cancel that must land mid-slice (lease expiry, shutdown) kills the
  worker process; the next job gets a fresh one.

Workers start lazily, on the first job, so they never delay binding
the port.  They come from the ``forkserver`` start method with the
worker module preloaded: each new worker is a fork of an interpreter
that has already imported the simulator, where ``spawn`` (the fallback
on platforms without forkserver) re-imports it in every worker.  The
forkserver keeps the environment it started with, so each job carries
its own settings — the daemon's ``validate`` flag, sanitizer switch
and ``REPRO_WORKLOAD_CACHE*`` variables — rather than inheriting them.

Memory splits three ways: the daemon holds, per finished job, only its
canonical result bytes and its telemetry (at most ``max_events`` rows,
as zlib-compressed NDJSON); the forkserver holds one preloaded
interpreter; each worker holds the one run it is executing.

Endpoints (all JSON; errors use the shared
:mod:`~repro.serve.protocol` payload)::

    GET  /healthz                         liveness + versions
    GET  /stats                           counters, states, quotas, workers
    POST /runs                            submit {"spec": {...}} -> job
    GET  /runs/{id}                       job status
    GET  /runs/{id}/result[?aggregates=1&wait=1&timeout=S]
    GET  /runs/{id}/events[?format=sse]   telemetry stream (NDJSON/SSE)
    POST /runs/{id}/cancel                request cancellation
    DELETE /runs/{id}                     same as cancel

Submissions are **single-flight** on the spec's cache key: while a run
for a key is queued, running, or done, further submissions of the same
key attach to it — they charge no quota, run no simulation, and fetch
the very same result bytes.  Results are canonical sorted-key compact
JSON of :func:`repro.serialize.result_to_dict`, encoded once in the
worker, so an HTTP-fetched result is byte-identical to an in-process
``Simulation(spec).run()`` serialized the same way; the shared on-disk
cache (:class:`repro.batch.BatchRunner`'s format) extends that
identity across server restarts.
"""

from __future__ import annotations

import asyncio
import itertools
import json
import math
import signal as signal_module
import threading
import time
import zlib
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Any
from urllib.parse import parse_qs, urlsplit

from repro.api import DEFAULT_N_JOBS, normalize_spec
from repro.batch import BatchRunner
from repro.experiments.config import RunSpec
from repro.faults import InjectedFault, fire as fault_fire
from repro.serialize import (
    SpecValidationError,
    result_from_dict,
    result_to_dict,
    spec_from_dict,
    spec_key,
    spec_to_dict,
)
from repro.serve import protocol
from repro.serve.journal import RunJournal
from repro.serve.protocol import (
    END_OF_STREAM,
    PROTOCOL_VERSION,
    TERMINAL_STATES,
    ServeError,
    canonical_result_bytes,
    ndjson_line,
    ndjson_to_sse,
    sse_line,
)
from repro.serve.quotas import DEFAULT_CLIENT, QuotaLedger, QuotaPolicy
from repro.serve.worker import (
    JobSettings,
    SimulationWorker,
    WorkerError,
    WorkerLost,
    WorkerPool,
)

__all__ = ["ReproServer", "ServeJob", "canonical_result_bytes"]

_MAX_BODY_BYTES = 16 << 20
_MAX_HEADERS = 100
_READ_TIMEOUT = 30.0
#: Poll interval for the async plane tailing worker-plane state.
_TICK = 0.02

_REASONS = {
    200: "OK",
    202: "Accepted",
    400: "Bad Request",
    404: "Not Found",
    409: "Conflict",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
}


class ServeJob:
    """One submitted run and everything the endpoints serve about it.

    A finished job keeps only its canonical result bytes and its
    telemetry as compressed NDJSON chunks; aggregates are decoded from
    the bytes on the first request for them.
    """

    def __init__(
        self,
        job_id: str,
        spec: RunSpec,
        key: str,
        client: str,
        max_events: int,
        *,
        recovered: bool = False,
    ) -> None:
        self.job_id = job_id
        self.spec = spec
        self.key = key
        self.client = client
        self.state = protocol.QUEUED
        self.submitted_at = time.time()
        self.started_at: float | None = None
        self.finished_at: float | None = None
        self.submissions = 1  # total submits attached to this job (single-flight)
        self.from_cache = False
        self.recovered = recovered  # re-admitted from the journal at startup
        self.error: dict[str, Any] | None = None
        self.result_bytes: bytes | None = None
        self.cancel_event = threading.Event()
        self.max_events = max_events
        # Watchdog surface: the monotonic deadline the current slice
        # must renew by (None means "not running").
        self.lease_deadline: float | None = None
        # ``lock`` covers the telemetry replay buffer (appended by the
        # job's thread, sliced by streaming handlers), the lazily-built
        # aggregates encoding, and ``worker`` — the process running this
        # job, which kill_worker() may only touch while it is attached.
        self.lock = threading.Lock()
        self.worker: SimulationWorker | None = None
        # Telemetry as the worker sent it: zlib-compressed NDJSON
        # chunks, each with its row count.
        self.events: list[tuple[bytes, int]] = []
        self.events_recorded = 0
        self.events_dropped = 0
        self._aggregates_bytes: bytes | None = None

    def add_events(self, chunk: bytes, rows: int, dropped: int) -> None:
        """Append one telemetry chunk; ``dropped`` is the running count."""
        with self.lock:
            if rows:
                self.events.append((chunk, rows))
                self.events_recorded += rows
            self.events_dropped = dropped

    def kill_worker(self) -> None:
        """Kill the worker process running this job, if any (any thread)."""
        with self.lock:
            if self.worker is not None:
                self.worker.kill()

    def aggregates_bytes(self) -> bytes:
        """The aggregates-only encoding of the finished result (cached)."""
        with self.lock:
            if self._aggregates_bytes is None:
                assert self.result_bytes is not None
                result = result_from_dict(json.loads(self.result_bytes))
                if not result.is_aggregated:
                    result = result.to_aggregates()
                self._aggregates_bytes = canonical_result_bytes(result_to_dict(result))
            return self._aggregates_bytes

    def status_payload(self) -> dict[str, Any]:
        with self.lock:
            recorded = self.events_recorded
            dropped = self.events_dropped
        return {
            "job_id": self.job_id,
            "state": self.state,
            "spec_key": self.key,
            "client": self.client,
            "submissions": self.submissions,
            "from_cache": self.from_cache,
            "recovered": self.recovered,
            "error": self.error,
            "events_recorded": recorded,
            "events_dropped": dropped,
            "submitted_at": self.submitted_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
        }


class ReproServer:
    """The daemon.  Three ways to run it:

    * ``run_blocking()`` — the ``repro serve`` CLI entry point;
    * ``start_in_thread()`` / ``stop()`` (or ``with ReproServer(...)``)
      — a background instance for tests and examples;
    * ``await start()`` inside an existing event loop.

    ``port=0`` binds an ephemeral port; read ``server.port`` after
    start.  ``cache_dir`` enables the shared on-disk result cache (the
    exact :class:`~repro.batch.BatchRunner` format, so sweeps and the
    daemon interchange entries) **and** the crash-consistent run
    journal: a daemon restarted over the same ``cache_dir`` re-admits
    every job that was submitted but not yet terminal, under its
    original job id, and re-runs it byte-identically (or serves it
    straight from the cache when the result landed before the crash).

    ``max_workers`` bounds both the jobs that run at once and the
    simulation worker processes that run them (see
    :mod:`repro.serve.worker`).  ``shed_inflight`` is the load-shedding
    high-water mark: once that many jobs are non-terminal, further
    *new* submissions are refused with a 503 carrying ``Retry-After``
    instead of being accepted into a queue the worker pool cannot drain
    in time (single-flight dedup hits still attach for free).  ``None``
    disables shedding.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        cache_dir: str | None = None,
        max_workers: int = 4,
        quota: QuotaPolicy | None = None,
        default_n_jobs: int = DEFAULT_N_JOBS,
        slice_events: int = 20_000,
        validate: bool = False,
        shed_inflight: int | None = None,
    ) -> None:
        if max_workers <= 0:
            raise ValueError(f"max_workers must be positive, got {max_workers}")
        if slice_events <= 0:
            raise ValueError(f"slice_events must be positive, got {slice_events}")
        if shed_inflight is not None and shed_inflight <= 0:
            raise ValueError(
                f"shed_inflight must be positive (or None to disable), "
                f"got {shed_inflight}"
            )
        self.host = host
        self.port = port
        self.quota = quota if quota is not None else QuotaPolicy()
        self.max_workers = max_workers
        self.default_n_jobs = default_n_jobs
        self.slice_events = slice_events
        self.validate = validate
        self.shed_inflight = shed_inflight
        # max_workers=0: the runner is used purely for its cache codec
        # (load/store under _cache_lock), never for its own pooling.
        self._runner = BatchRunner(
            max_workers=0, cache_dir=cache_dir, default_n_jobs=default_n_jobs
        )
        self._journal = (
            RunJournal(Path(cache_dir) / "serve-journal.jsonl")
            if cache_dir is not None
            else None
        )
        self._ledger = QuotaLedger(self.quota)
        self._workers = WorkerPool(max_workers)
        self._state_lock = threading.Lock()
        self._cache_lock = threading.Lock()
        self._jobs: dict[str, ServeJob] = {}
        self._by_key: dict[str, ServeJob] = {}
        self._ids = itertools.count(1)
        self._accepting = True
        self._draining = False
        # Set at shutdown, checked by workers before the client-cancel
        # path: a job dying with the daemon must NOT journal a terminal
        # record (the next life re-admits it), unlike a client cancel.
        self._closing = threading.Event()
        self._submissions = 0
        self._deduped = 0
        self._simulations_run = 0
        self._recovered_jobs = 0
        self._shed_submissions = 0
        self._lease_expirations = 0
        self._loop: asyncio.AbstractEventLoop | None = None
        self._executor: ThreadPoolExecutor | None = None
        self._server: asyncio.AbstractServer | None = None
        self._stopping: asyncio.Event | None = None
        self._ready = threading.Event()
        self._exited = threading.Event()  # set as the server thread ends
        self._startup_error: BaseException | None = None
        self._thread: threading.Thread | None = None
        self._watchdog: threading.Thread | None = None
        self._watchdog_stop = threading.Event()

    # -- lifecycle ---------------------------------------------------------------
    @property
    def address(self) -> str:
        return f"{self.host}:{self.port}"

    async def start(self) -> "ReproServer":
        """Bind and begin accepting connections (inside a running loop)."""
        if self._server is not None:
            raise RuntimeError("server already started")
        self._loop = asyncio.get_running_loop()
        self._stopping = asyncio.Event()
        self._executor = ThreadPoolExecutor(
            max_workers=self.max_workers, thread_name_prefix="repro-serve"
        )
        # Replay the journal *before* the port binds: recovered jobs are
        # queued (and their ids reserved) by the time the first request
        # can possibly arrive.
        self._recover_journal()
        self._watchdog_stop.clear()
        self._watchdog = threading.Thread(
            target=self._watchdog_main, name="repro-serve-watchdog", daemon=True
        )
        self._watchdog.start()
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        return self

    def _recover_journal(self) -> None:
        """Re-admit every submitted-but-unfinished job from a prior life."""
        if self._journal is None:
            return
        pending, next_id = self._journal.recover()
        if next_id > 1:
            self._ids = itertools.count(next_id)
        executor = self._executor
        assert executor is not None
        for entry in pending:
            try:
                spec = normalize_spec(spec_from_dict(entry.spec), self.default_n_jobs)
            except (SpecValidationError, TypeError, ValueError):
                continue  # journaled by an incompatible writer; skip
            # Recovered jobs were admitted in the previous life: they
            # bypass the admission *check* but still hold a counted slot.
            self._ledger.acquire(entry.client, force=True)
            job = ServeJob(
                entry.job_id,
                spec,
                entry.key,
                entry.client,
                self.quota.max_events,
                recovered=True,
            )
            with self._state_lock:
                self._jobs[job.job_id] = job
                self._by_key[entry.key] = job
                self._recovered_jobs += 1
            executor.submit(self._execute, job)

    async def _serve(self) -> None:
        try:
            await self.start()
        except BaseException as exc:
            self._startup_error = exc
            self._ready.set()
            raise
        self._ready.set()
        self._install_signal_handlers()
        try:
            await self._stopping.wait()
        finally:
            await self._shutdown()

    def _install_signal_handlers(self) -> None:
        """Route SIGTERM through the graceful drain (main thread only).

        ``loop.add_signal_handler`` requires the loop to live on the
        main thread; background (``start_in_thread``) instances skip
        this and are stopped via :meth:`stop` instead.
        """
        if threading.current_thread() is not threading.main_thread():
            return
        assert self._loop is not None
        try:
            self._loop.add_signal_handler(
                signal_module.SIGTERM, self._begin_drain, 30.0
            )
        except (NotImplementedError, RuntimeError, ValueError):
            pass  # platform without loop signal support

    async def _shutdown(self) -> None:
        self._closing.set()
        with self._state_lock:
            self._accepting = False
            jobs = list(self._jobs.values())
        assert self._server is not None and self._loop is not None
        self._server.close()
        await self._server.wait_closed()
        self._watchdog_stop.set()
        for job in jobs:
            if job.state not in TERMINAL_STATES:
                job.cancel_event.set()
                # Interrupt the slice in flight, not just the next
                # boundary check — shutdown should not wait out a full
                # slice.
                job.kill_worker()
        executor = self._executor

        def reap() -> None:
            if executor is not None:
                executor.shutdown(wait=True, cancel_futures=True)
            self._workers.close()

        await self._loop.run_in_executor(None, reap)
        watchdog = self._watchdog
        if watchdog is not None:
            await self._loop.run_in_executor(None, lambda: watchdog.join(timeout=5))
        # Queued jobs whose futures were cancelled never reached a
        # worker: close them out here (running ones closed themselves).
        # ``journal=False``: these jobs die with the daemon, not on
        # their merits — the journal keeps them pending so a restart
        # over the same cache_dir re-admits and re-runs them.
        for job in jobs:
            if job.state not in TERMINAL_STATES:
                self._finish(
                    job,
                    protocol.CANCELLED,
                    error={
                        "code": "unavailable",
                        "message": "server shut down",
                        "field": None,
                    },
                    journal=False,
                )

    def run_blocking(self) -> None:
        """Serve until interrupted — the ``repro serve`` entry point."""
        try:
            asyncio.run(self._serve())
        except KeyboardInterrupt:
            pass

    def start_in_thread(self) -> "ReproServer":
        """Run the loop in a daemon thread; returns once the port is bound."""
        if self._thread is not None:
            raise RuntimeError("server thread already running")
        self._thread = threading.Thread(
            target=self._thread_main, name="repro-serve", daemon=True
        )
        self._thread.start()
        if not self._ready.wait(timeout=30):
            raise RuntimeError("server did not start within 30s")
        if self._startup_error is not None:
            raise RuntimeError("server failed to start") from self._startup_error
        return self

    def _thread_main(self) -> None:
        try:
            asyncio.run(self._serve())
        except BaseException:
            # Startup failures are re-raised to the starting thread via
            # _startup_error; anything else here means we were stopped.
            if self._startup_error is None:
                raise
        finally:
            self._exited.set()

    def wait(self, timeout: float | None = None) -> bool:
        """Block until the background server thread exits; True once it has."""
        thread = self._thread
        if thread is None:
            return True
        # Not thread.join(timeout): on Python 3.11 a KeyboardInterrupt
        # landing inside join() marks the still-running thread stopped,
        # so the stop() after a Ctrl-C would return before shutdown had
        # reaped the worker processes.
        if not self._exited.wait(timeout):
            return False
        thread.join()
        return True

    def stop(self, timeout: float = 60.0) -> None:
        """Stop a ``start_in_thread`` server: drain workers, join the thread.

        Raises :class:`RuntimeError` if the server thread is still alive
        after ``timeout`` seconds — a silent return here would leave a
        zombie loop holding the port and the worker pool, and the
        caller's next move (rebind, re-start) would fail mysteriously.
        """
        thread = self._thread
        if thread is None:
            return
        if self._loop is not None and self._stopping is not None:
            stopping = self._stopping
            try:
                self._loop.call_soon_threadsafe(stopping.set)
            except RuntimeError:
                pass  # loop already closed (a drain beat us to shutdown)
        thread.join(timeout=timeout)
        if thread.is_alive():
            with self._state_lock:
                busy = sum(
                    1
                    for job in self._jobs.values()
                    if job.state not in TERMINAL_STATES
                )
            raise RuntimeError(
                f"server thread failed to stop within {timeout}s "
                f"({busy} jobs still non-terminal on {self.address}); "
                f"the loop is still running — the port and worker pool "
                f"are not released"
            )
        self._thread = None

    def __enter__(self) -> "ReproServer":
        return self.start_in_thread()

    def __exit__(self, *exc_info: object) -> None:
        self.stop()

    # -- submission & execution (worker plane) -----------------------------------
    def submit(self, spec: RunSpec, client: str = DEFAULT_CLIENT) -> tuple[ServeJob, bool]:
        """Admit ``spec``; returns ``(job, deduped)``.

        Single-flight: if a job for the same cache key is queued,
        running, or done, the submission attaches to it (no quota
        charge, no new simulation).  Failed or cancelled keys retry
        with a fresh job.
        """
        key = spec_key(spec)
        with self._state_lock:
            if not self._accepting:
                raise ServeError("unavailable", "server is shutting down")
            existing = self._by_key.get(key)
            if existing is not None and existing.state not in (
                protocol.FAILED,
                protocol.CANCELLED,
            ):
                existing.submissions += 1
                self._deduped += 1
                return existing, True
            # Load shedding: refuse *new* work (dedup hits above stay
            # free) once the non-terminal backlog reaches the high-water
            # mark.  Retry-After is sized to the backlog, not a fixed
            # constant, so clients back off harder under deeper queues.
            if self.shed_inflight is not None:
                backlog = sum(
                    1
                    for job in self._jobs.values()
                    if job.state not in TERMINAL_STATES
                )
                if backlog >= self.shed_inflight:
                    self._shed_submissions += 1
                    raise ServeError(
                        "unavailable",
                        f"server is shedding load: {backlog} jobs in flight "
                        f"(high-water mark {self.shed_inflight})",
                        retry_after=min(30.0, 0.5 * backlog),
                    )
            self._ledger.acquire(client)  # raises QuotaExceeded
            job = ServeJob(
                f"job-{next(self._ids):06d}", spec, key, client, self.quota.max_events
            )
            self._jobs[job.job_id] = job
            self._by_key[key] = job
            self._submissions += 1
            executor = self._executor
        assert executor is not None, "server not started"
        if self._journal is not None:
            try:
                self._journal.record_submitted(
                    job.job_id, key, client, spec_to_dict(spec)
                )
            except Exception as exc:
                # An admission we cannot journal is an admission a crash
                # would silently lose: refuse it and undo the bookkeeping.
                with self._state_lock:
                    self._jobs.pop(job.job_id, None)
                    if self._by_key.get(key) is job:
                        del self._by_key[key]
                    self._submissions -= 1
                self._ledger.release(client)
                raise ServeError(
                    "unavailable",
                    f"run journal rejected the submission: "
                    f"{type(exc).__name__}: {exc}",
                ) from exc
        executor.submit(self._execute, job)
        return job, False

    def _execute(self, job: ServeJob) -> None:
        try:
            if self._closing.is_set():
                # Dying with the daemon: leave the job non-terminal so
                # the shutdown close-out (journal=False) handles it and
                # the journal keeps it pending for the next life.
                return
            if job.cancel_event.is_set():
                self._finish(
                    job,
                    protocol.CANCELLED,
                    error={
                        "code": "cancelled",
                        "message": "cancelled before start",
                        "field": None,
                    },
                )
                return
            with self._state_lock:
                job.state = protocol.RUNNING
                job.started_at = time.time()
            with self._cache_lock:
                cached = self._runner.cache_load(job.spec)
            if cached is not None:
                # A cache hit streams no telemetry (the run happened in
                # some earlier life); subscribers get the sentinel only.
                job.from_cache = True
                job.result_bytes = canonical_result_bytes(result_to_dict(cached))
                self._finish(job, protocol.DONE)
                return
            data = self._simulate(job)
            if data is None:
                return  # cancelled or over budget; _finish already ran
            with self._cache_lock:
                self._runner.cache_store_bytes(job.spec, data)
            job.result_bytes = data
            self._finish(job, protocol.DONE)
        except Exception as exc:
            if isinstance(exc, WorkerError):
                message = str(exc)  # already "Type: message" from the worker
            else:
                message = f"{type(exc).__name__}: {exc}"
            self._finish(
                job,
                protocol.FAILED,
                error={"code": "simulation_failed", "message": message, "field": None},
            )

    def _simulate(self, job: ServeJob) -> bytes | None:
        """Drive one run in a worker process, slice by slice.

        Returns the canonical result bytes, or ``None`` if the run did
        not finish: ``_finish`` already ran, or the shutdown close-out
        owns the job.
        """
        try:
            worker = self._workers.acquire()
        except WorkerLost:
            if self._closing.is_set():
                return None
            raise
        with job.lock:
            job.worker = worker
        settings = JobSettings.capture(self.validate, job.max_events)
        deadline = time.monotonic() + self.quota.max_wall_seconds
        try:
            done = self._absorb(job, worker.request("start", job.spec, settings))
            while not done:
                if self._closing.is_set():
                    return None  # shutdown close-out finishes the job
                if job.cancel_event.is_set():
                    self._finish(
                        job,
                        protocol.CANCELLED,
                        error={
                            "code": "cancelled",
                            "message": "cancelled by client",
                            "field": None,
                        },
                    )
                    return None
                if time.monotonic() >= deadline:
                    self._finish(
                        job,
                        protocol.FAILED,
                        error={
                            "code": "quota_exceeded",
                            "message": (
                                f"run exceeded the {self.quota.max_wall_seconds}s "
                                f"wall-clock budget"
                            ),
                            "field": None,
                        },
                    )
                    return None
                # Renew the progress lease, then run one slice.  A slice
                # that wedges misses the renewal; the watchdog observes
                # the stale deadline and kills the worker from outside.
                job.lease_deadline = time.monotonic() + self.quota.lease_seconds
                fault_fire("worker.slice")
                done = self._absorb(job, worker.request("slice", self.slice_events))
            # Closing the books and encoding the result is leased too.
            job.lease_deadline = time.monotonic() + self.quota.lease_seconds
            _, data, *telemetry = worker.request("finish")
            job.add_events(*telemetry)
        except WorkerLost:
            if worker.killed or self._closing.is_set():
                # The watchdog or shutdown killed it mid-slice and owns
                # the job's close-out.
                return None
            raise  # a crash: the job fails with simulation_failed
        finally:
            job.lease_deadline = None
            with job.lock:
                job.worker = None
            self._return_worker(worker)
        with self._state_lock:
            self._simulations_run += 1
        return data

    @staticmethod
    def _absorb(job: ServeJob, reply: tuple[Any, ...]) -> bool:
        """Take a slice reply's telemetry into the job; returns ``done``."""
        _, done, *telemetry = reply
        job.add_events(*telemetry)
        return bool(done)

    def _return_worker(self, worker: SimulationWorker) -> None:
        """Back to the pool, minus any abandoned run; reap it if it died.

        A failed round trip, not ``process.is_alive()``, is the proof of
        death: the pipe closes before the process is reaped, so a
        crashed worker can still read as alive here.
        """
        try:
            if worker.killed:
                raise WorkerLost(f"worker process {worker.pid} was killed")
            worker.request("drop")
        except WorkerLost:
            self._workers.discard(worker)
        else:
            self._workers.release(worker)

    def _finish(
        self,
        job: ServeJob,
        state: str,
        error: dict[str, Any] | None = None,
        *,
        journal: bool = True,
    ) -> None:
        with self._state_lock:
            if job.state in TERMINAL_STATES:
                return
            job.state = state
            job.error = error
            job.finished_at = time.time()
            if (
                state in (protocol.FAILED, protocol.CANCELLED)
                and self._by_key.get(job.key) is job
            ):
                # Let a later submission of the same spec start afresh.
                del self._by_key[job.key]
        self._ledger.release(job.client)
        # ``journal=False`` is for shutdown close-outs: a job cancelled
        # only because the daemon is exiting must stay journalled as
        # pending so the next life re-admits it.
        if journal and self._journal is not None:
            try:
                self._journal.record_terminal(job.job_id, state)
            except Exception:
                # Best effort: a lost terminal record merely means the
                # next restart re-runs (or cache-hits) this job.
                pass

    # -- watchdog (lease enforcement) ---------------------------------------------
    def _watchdog_main(self) -> None:
        """Fail any job whose running slice outlived its progress lease."""
        lease = self.quota.lease_seconds
        if math.isinf(lease):
            return
        interval = max(0.05, min(1.0, lease / 4))
        while not self._watchdog_stop.wait(interval):
            now = time.monotonic()
            with self._state_lock:
                expired = [
                    job
                    for job in self._jobs.values()
                    if job.state == protocol.RUNNING
                    and job.lease_deadline is not None
                    and now >= job.lease_deadline
                ]
            for job in expired:
                self._expire_lease(job)

    def _expire_lease(self, job: ServeJob) -> None:
        """Fail a wedged job from outside its job thread."""
        if self._closing.is_set():
            return  # shutdown owns close-outs now; don't journal terminals
        job.cancel_event.set()
        # Kill the worker mid-slice: its job thread sees the round
        # trip fail, leaves the close-out below to us, and reaps it.
        job.kill_worker()
        with self._state_lock:
            self._lease_expirations += 1
        self._finish(
            job,
            protocol.FAILED,
            error={
                "code": "lease_expired",
                "message": (
                    f"worker slice made no progress within the "
                    f"{self.quota.lease_seconds}s lease; job cancelled"
                ),
                "field": None,
            },
        )

    # -- graceful drain -----------------------------------------------------------
    def request_drain(self, grace_seconds: float = 30.0) -> None:
        """Begin a graceful drain (thread- and signal-safe).

        Stops accepting new submissions immediately, lets in-flight
        jobs finish for up to ``grace_seconds``, then stops the loop —
        whatever is still running at that point is closed out by
        shutdown *without* a terminal journal record, so a restart
        picks it back up.  Idempotent.
        """
        loop = self._loop
        if loop is None or self._stopping is None:
            return
        loop.call_soon_threadsafe(self._begin_drain, grace_seconds)

    def _begin_drain(self, grace_seconds: float) -> None:
        if self._draining:
            return
        self._draining = True
        with self._state_lock:
            self._accepting = False
        assert self._loop is not None
        self._loop.create_task(self._drain(grace_seconds))

    async def _drain(self, grace_seconds: float) -> None:
        assert self._loop is not None and self._stopping is not None
        deadline = self._loop.time() + grace_seconds
        while self._loop.time() < deadline:
            with self._state_lock:
                busy = any(
                    job.state not in TERMINAL_STATES for job in self._jobs.values()
                )
            if not busy:
                break
            await asyncio.sleep(_TICK)
        self._stopping.set()

    # -- HTTP plumbing (asyncio plane) -------------------------------------------
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            try:
                request = await asyncio.wait_for(
                    self._read_request(reader), _READ_TIMEOUT
                )
            except (asyncio.TimeoutError, asyncio.IncompleteReadError, ConnectionError):
                return
            if request is None:
                return
            method, target, headers, body = request
            try:
                await self._dispatch(method, target, headers, body, writer)
            except ServeError as err:
                await self._send_json(
                    writer, err.status, err.payload(), retry_after=err.retry_after
                )
            except (ConnectionError, asyncio.CancelledError):
                raise
            except Exception as exc:
                fallback = ServeError("server_error", f"{type(exc).__name__}: {exc}")
                await self._send_json(writer, fallback.status, fallback.payload())
        except (ConnectionError, OSError, InjectedFault):
            # Peer went away mid-response (or chaos testing severed the
            # connection for us); nothing left to tell it.
            pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _read_request(
        self, reader: asyncio.StreamReader
    ) -> tuple[str, str, dict[str, str], bytes] | None:
        fault_fire("http.read")
        line = await reader.readline()
        if not line:
            return None
        parts = line.decode("latin-1").strip().split()
        if len(parts) != 3:
            raise ServeError("invalid_request", "malformed HTTP request line")
        method, target, _version = parts
        headers: dict[str, str] = {}
        while True:
            raw = await reader.readline()
            if raw in (b"\r\n", b"\n", b""):
                break
            name, sep, value = raw.decode("latin-1").partition(":")
            if sep:
                headers[name.strip().lower()] = value.strip()
            if len(headers) > _MAX_HEADERS:
                raise ServeError("invalid_request", "too many headers")
        length_text = headers.get("content-length", "0")
        try:
            length = int(length_text)
        except ValueError:
            raise ServeError(
                "invalid_request", f"bad Content-Length: {length_text!r}"
            ) from None
        if length < 0 or length > _MAX_BODY_BYTES:
            raise ServeError(
                "invalid_request",
                f"Content-Length {length} outside [0, {_MAX_BODY_BYTES}]",
            )
        body = await reader.readexactly(length) if length else b""
        return method.upper(), target, headers, body

    async def _dispatch(
        self,
        method: str,
        target: str,
        headers: dict[str, str],
        body: bytes,
        writer: asyncio.StreamWriter,
    ) -> None:
        url = urlsplit(target)
        path = url.path.rstrip("/") or "/"
        query = {key: values[-1] for key, values in parse_qs(url.query).items()}
        client = headers.get("x-repro-client", DEFAULT_CLIENT)
        if path == "/healthz" and method == "GET":
            import repro

            await self._send_json(
                writer,
                200,
                {
                    "status": "ok",
                    "protocol": PROTOCOL_VERSION,
                    "version": repro.__version__,
                },
            )
        elif path == "/stats" and method == "GET":
            await self._send_json(writer, 200, self.stats())
        elif path == "/runs" and method == "POST":
            await self._handle_submit(body, client, writer)
        elif path.startswith("/runs/"):
            job_id, _, action = path[len("/runs/") :].partition("/")
            with self._state_lock:
                job = self._jobs.get(job_id)
            if job is None:
                raise ServeError("not_found", f"no such job: {job_id!r}")
            if action == "" and method == "GET":
                await self._send_json(writer, 200, job.status_payload())
            elif (action == "cancel" and method == "POST") or (
                action == "" and method == "DELETE"
            ):
                await self._handle_cancel(job, writer)
            elif action == "result" and method == "GET":
                await self._handle_result(job, query, writer)
            elif action == "events" and method == "GET":
                await self._handle_events(job, query, headers, writer)
            else:
                raise ServeError("not_found", f"no route for {method} {path}")
        else:
            raise ServeError("not_found", f"no route for {method} {path}")

    async def _handle_submit(
        self, body: bytes, client: str, writer: asyncio.StreamWriter
    ) -> None:
        try:
            document = json.loads(body.decode("utf-8")) if body else None
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ServeError(
                "invalid_request", f"request body is not valid JSON: {exc}"
            ) from exc
        if not isinstance(document, dict):
            raise ServeError("invalid_request", "request body must be a JSON object")
        raw_spec = document.get("spec", document)  # envelope optional
        try:
            spec = normalize_spec(spec_from_dict(raw_spec), self.default_n_jobs)
        except SpecValidationError as exc:
            raise ServeError("invalid_spec", exc.reason, exc.path or None) from exc
        except (TypeError, ValueError) as exc:
            raise ServeError("invalid_spec", str(exc)) from exc
        job, deduped = self.submit(spec, client)
        payload = job.status_payload()
        payload["deduped"] = deduped
        await self._send_json(writer, 202, payload)

    async def _handle_cancel(
        self, job: ServeJob, writer: asyncio.StreamWriter
    ) -> None:
        terminal = job.state in TERMINAL_STATES
        if not terminal:
            job.cancel_event.set()
        payload = job.status_payload()
        payload["cancel_requested"] = not terminal
        await self._send_json(writer, 202, payload)

    async def _handle_result(
        self, job: ServeJob, query: dict[str, str], writer: asyncio.StreamWriter
    ) -> None:
        wait = _truthy(query.get("wait"))
        try:
            timeout = float(query.get("timeout", "60"))
        except ValueError:
            raise ServeError(
                "invalid_request", f"bad timeout: {query.get('timeout')!r}"
            ) from None
        assert self._loop is not None
        deadline = self._loop.time() + timeout
        while job.state not in TERMINAL_STATES:
            if not wait or self._loop.time() >= deadline:
                raise ServeError(
                    "not_ready", f"job {job.job_id} is {job.state}; retry or ?wait=1"
                )
            await asyncio.sleep(_TICK)
        if job.state == protocol.CANCELLED:
            raise ServeError("cancelled", f"job {job.job_id} was cancelled")
        if job.state == protocol.FAILED:
            error = job.error or {}
            raise ServeError(
                error.get("code", "simulation_failed"),
                error.get("message", "simulation failed"),
                error.get("field"),
            )
        if _truthy(query.get("aggregates")):
            assert self._loop is not None
            body = await self._loop.run_in_executor(None, job.aggregates_bytes)
        else:
            assert job.result_bytes is not None
            body = job.result_bytes
        await self._send_bytes(writer, 200, body, "application/json")

    async def _handle_events(
        self,
        job: ServeJob,
        query: dict[str, str],
        headers: dict[str, str],
        writer: asyncio.StreamWriter,
    ) -> None:
        sse = query.get("format") == "sse" or "text/event-stream" in headers.get(
            "accept", ""
        )
        content_type = "text/event-stream" if sse else "application/x-ndjson"

        def frames(chunks: list[tuple[bytes, int]]) -> bytes:
            ndjson = b"".join(zlib.decompress(chunk) for chunk, _ in chunks)
            if not sse:
                return ndjson
            return b"".join(map(ndjson_to_sse, ndjson.splitlines(keepends=True)))

        await self._send_stream_head(writer, content_type)
        taken = sent = 0  # chunks and rows streamed so far
        while True:
            # Terminal state is only set after the run stopped emitting,
            # so a buffer sliced *after* seeing it holds every row.
            terminal = job.state in TERMINAL_STATES
            with job.lock:
                chunks = job.events[taken:]
                dropped = job.events_dropped
            taken += len(chunks)
            sent += sum(rows for _, rows in chunks)
            if chunks:
                writer.write(frames(chunks))
            if terminal:
                sentinel = {
                    "event": END_OF_STREAM,
                    "state": job.state,
                    "events": sent,
                    "events_dropped": dropped,
                }
                writer.write(sse_line(sentinel) if sse else ndjson_line(sentinel))
                await writer.drain()
                return
            if chunks:
                await writer.drain()
            await asyncio.sleep(_TICK)

    # -- responses ---------------------------------------------------------------
    async def _send_json(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        payload: dict[str, Any],
        *,
        retry_after: float | None = None,
    ) -> None:
        if writer.is_closing():
            return
        body = (
            json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"
        ).encode("utf-8")
        await self._send_bytes(
            writer, status, body, "application/json", retry_after=retry_after
        )

    async def _send_bytes(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        body: bytes,
        content_type: str,
        *,
        retry_after: float | None = None,
    ) -> None:
        if writer.is_closing():
            return
        fault_fire("http.write")
        extra = ""
        if retry_after is not None:
            # Retry-After is delay-seconds; HTTP wants an integer, so
            # round up — never tell a client to come back too early.
            extra = f"Retry-After: {max(1, math.ceil(retry_after))}\r\n"
        head = (
            f"HTTP/1.1 {status} {_REASONS.get(status, 'OK')}\r\n"
            f"Content-Type: {content_type}\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"{extra}"
            f"Connection: close\r\n\r\n"
        ).encode("latin-1")
        writer.write(head + body)
        await writer.drain()

    async def _send_stream_head(
        self, writer: asyncio.StreamWriter, content_type: str
    ) -> None:
        # No Content-Length: the stream is close-delimited (we answer
        # HTTP/1.1 with Connection: close on every response).
        fault_fire("http.write")
        head = (
            f"HTTP/1.1 200 OK\r\n"
            f"Content-Type: {content_type}\r\n"
            f"Cache-Control: no-store\r\n"
            f"Connection: close\r\n\r\n"
        ).encode("latin-1")
        writer.write(head)
        await writer.drain()

    # -- introspection -----------------------------------------------------------
    def stats(self) -> dict[str, Any]:
        """The ``/stats`` payload (also handy in-process, e.g. in tests)."""
        with self._state_lock:
            states = Counter(job.state for job in self._jobs.values())
            payload: dict[str, Any] = {
                "protocol": PROTOCOL_VERSION,
                "accepting": self._accepting,
                "draining": self._draining,
                "jobs": {state: states.get(state, 0) for state in protocol.JOB_STATES},
                "submissions": self._submissions,
                "deduped_submissions": self._deduped,
                "simulations_run": self._simulations_run,
                "recovered_jobs": self._recovered_jobs,
                "shed_submissions": self._shed_submissions,
                "shed_inflight": self.shed_inflight,
                "lease_expirations": self._lease_expirations,
                "cache_hits": self._runner.cache_hits,
                "cache_misses": self._runner.cache_misses,
                "quota": {
                    "max_inflight": self.quota.max_inflight,
                    "max_events": self.quota.max_events,
                    "max_wall_seconds": self.quota.max_wall_seconds,
                    "lease_seconds": self.quota.lease_seconds,
                },
            }
        payload["workers"] = self._workers.stats()
        payload["inflight"] = self._ledger.snapshot()
        return payload

    @property
    def simulations_run(self) -> int:
        """Execution counter: simulations actually driven to completion."""
        with self._state_lock:
            return self._simulations_run


def _truthy(value: str | None) -> bool:
    return value is not None and value.lower() not in ("", "0", "false", "no")
