"""The serve daemon's process worker plane.

Each accepted run executes in a long-lived simulation worker process,
not on a daemon thread, so concurrent runs do not share one interpreter
lock.  A :class:`WorkerPool` holds at most ``max_workers`` processes,
starts them lazily on the first job, and reuses them across jobs.  A
worker runs one :class:`~repro.session.SimulationSession` at a time,
driven in lockstep by the job's thread in the daemon: every
request below is one pipe round trip, and the daemon keeps every
policy decision (fault site, lease, cancel and budget checks) on its
side of the pipe::

    ("start", spec, settings)  build the session    -> ("ok", done, chunk, rows, dropped)
    ("slice", n_events)        session.run_for(n)   -> ("ok", done, chunk, rows, dropped)
    ("finish",)                result, encoded once -> ("done", bytes, chunk, rows, dropped)
    ("drop",)                  abandon the session  -> ("ok", True, b"", 0, 0)

Any request may instead answer ``("error", "Type: message")``; the
worker then holds no session and stays reusable.  ``chunk`` holds the
``rows`` telemetry rows recorded since the previous reply, encoded as
NDJSON lines and zlib-compressed (10k rows are about 1 MB of NDJSON
and under 200 kB compressed, and the daemon keeps every finished
job's rows for replay); rows past the job's ``max_events`` are never
encoded, only counted in the running total ``dropped``.

The only cross-thread operation is :meth:`SimulationWorker.kill`: a
watchdog lease expiry or a daemon shutdown that lands mid-slice kills
the process, and the job's thread, whose round trip then fails with
:class:`WorkerLost`, reaps it; the next job starts a fresh one.

Processes come from the ``forkserver`` start method with this module
preloaded, so a new worker is a fork of an interpreter that has
already imported the simulator (``spawn``, the fallback where
forkserver does not exist, pays that import per worker).  The fork
happens in the single-threaded forkserver, never in the threaded
daemon, so no worker inherits a lock some daemon thread held.  The
forkserver captured the daemon's environment when it started, so a job
never relies on it: :class:`JobSettings` carries the daemon's
``validate`` flag, sanitizer switch and ``REPRO_WORKLOAD_CACHE*``
variables with every job.  As in any multiprocessing program, a worker
imports the daemon's ``__main__`` module, so a script that embeds a
:class:`~repro.serve.server.ReproServer` needs the
``if __name__ == "__main__":`` guard, and registry components it adds
must be registered at import time to exist in the workers.

Workers ignore SIGINT and SIGTERM: the daemon decides when they stop
(hang-up, kill, or a pool reap at interpreter exit).  A worker also
exits when the daemon's end of its process sentinel closes, so not
even a SIGKILLed daemon leaves one behind.
"""

from __future__ import annotations

import atexit
import multiprocessing
import os
import signal
import threading
import weakref
import zlib
from dataclasses import dataclass, replace
from multiprocessing.connection import Connection, wait
from typing import Any

from repro.analysis import sanitize
from repro.api import Simulation
from repro.experiments.config import RunSpec
from repro.instruments import Instrument
from repro.serialize import result_to_dict
from repro.serve.protocol import canonical_result_bytes, event_to_wire, ndjson_line
from repro.session import SimulationSession
from repro.sim.events import LifecycleEvent

__all__ = ["JobSettings", "SimulationWorker", "WorkerError", "WorkerLost", "WorkerPool"]

#: Environment variables a job carries from the daemon into its worker.
_CARRIED_ENV_PREFIX = "REPRO_WORKLOAD_CACHE"


class WorkerError(RuntimeError):
    """The run raised inside the worker; the message reads ``"Type: message"``."""


class WorkerLost(RuntimeError):
    """The worker process is gone: killed by a cancel, or crashed."""


@dataclass(frozen=True)
class JobSettings:
    """How a worker runs one job, captured in the daemon when it starts."""

    validate: bool
    sanitize: bool
    env: tuple[tuple[str, str], ...]
    max_events: int

    @classmethod
    def capture(cls, validate: bool, max_events: int) -> "JobSettings":
        env = tuple(
            sorted(
                (key, value)
                for key, value in os.environ.items()
                if key.startswith(_CARRIED_ENV_PREFIX)
            )
        )
        return cls(validate, sanitize.enabled(), env, max_events)

    def apply(self) -> None:
        """Make this worker process's settings the job's (worker side)."""
        for key in [key for key in os.environ if key.startswith(_CARRIED_ENV_PREFIX)]:
            del os.environ[key]
        os.environ.update(self.env)
        sanitize.enable(self.sanitize)


class _TelemetryForwarder(Instrument):
    """Session instrument encoding lifecycle events as NDJSON lines.

    Deliberately *not* registry-registered: it is server plumbing, not
    a user instrument, and its report is stripped from the result so
    the served bytes match an un-instrumented in-process run.  Events
    past ``max_events`` are counted, never encoded.
    """

    name = "_serve_telemetry"

    def __init__(self, max_events: int) -> None:
        super().__init__()
        self._room = max_events
        self._lines: list[bytes] = []
        self.dropped = 0

    def on_event(self, event: LifecycleEvent) -> None:
        if self._room > 0:
            self._room -= 1
            self._lines.append(ndjson_line(event_to_wire(event)))
        else:
            self.dropped += 1

    def flush(self) -> tuple[bytes, int]:
        """The rows recorded since the previous flush: ``(chunk, rows)``."""
        lines, self._lines = self._lines, []
        return (zlib.compress(b"".join(lines), 1) if lines else b""), len(lines)


# -- worker side ------------------------------------------------------------------
def _exit_with_daemon() -> None:
    """Exit the moment the daemon's end of the process sentinel closes.

    A daemon that dies without reaping its workers (SIGKILL) would
    otherwise leave one finishing its slice, or spinning in a wedged
    one, with nobody to answer.
    """
    parent = multiprocessing.parent_process()
    if parent is None:
        return

    def watch() -> None:
        wait([parent.sentinel])
        os._exit(1)

    threading.Thread(target=watch, name="repro-serve-worker-watch", daemon=True).start()


class _Runner:
    """The worker's side of the protocol: at most one session at a time."""

    def __init__(self) -> None:
        self._session: SimulationSession | None = None
        self._forwarder = _TelemetryForwarder(0)

    def _progress(self) -> tuple[Any, ...]:
        assert self._session is not None
        return ("ok", self._session.done, *self._forwarder.flush(), self._forwarder.dropped)

    def start(self, spec: RunSpec, settings: JobSettings) -> tuple[Any, ...]:
        self._session = None  # nothing survives from an earlier job
        settings.apply()
        self._forwarder = _TelemetryForwarder(settings.max_events)
        self._session = Simulation(spec, validate=settings.validate).session(
            instruments=[self._forwarder]
        )
        return self._progress()

    def slice(self, n_events: int) -> tuple[Any, ...]:
        assert self._session is not None
        self._session.run_for(n_events)
        return self._progress()

    def finish(self) -> tuple[Any, ...]:
        assert self._session is not None
        session, self._session = self._session, None
        result = session.result()
        # Strip the forwarder's report: the served bytes must equal a
        # plain in-process run of the spec.
        reports = tuple(r for r in result.instruments if r.name != self._forwarder.name)
        data = canonical_result_bytes(result_to_dict(replace(result, instruments=reports)))
        return ("done", data, *self._forwarder.flush(), self._forwarder.dropped)

    def drop(self) -> tuple[Any, ...]:
        """Abandon the run (client cancel, budget, shutdown, or an error)."""
        self._session = None
        return ("ok", True, b"", 0, 0)


def _serve(conn: Connection) -> None:
    """Worker process entry point: answer the daemon until it hangs up."""
    # The daemon owns this process's lifetime (hang-up, kill, or its own
    # death): a terminal's Ctrl-C or a process-group SIGTERM must reach
    # the daemon's drain rather than kill the runs under it.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    signal.signal(signal.SIGTERM, signal.SIG_IGN)
    _exit_with_daemon()
    runner = _Runner()
    with conn:
        while True:
            try:
                op, *args = conn.recv()
            except EOFError:
                return
            try:
                reply = getattr(runner, op)(*args)
            except Exception as exc:
                runner.drop()  # a failed request leaves no session behind
                reply = ("error", f"{type(exc).__name__}: {exc}")
            conn.send(reply)
            del reply  # the result bytes need not outlive their send


# -- daemon side ------------------------------------------------------------------
def _context() -> Any:
    """The forkserver context with this module preloaded (else spawn)."""
    if "forkserver" in multiprocessing.get_all_start_methods():
        context = multiprocessing.get_context("forkserver")
        context.set_forkserver_preload([__name__])
        return context
    return multiprocessing.get_context("spawn")


class SimulationWorker:
    """The daemon's handle on one worker process.

    One job thread at a time owns it; :meth:`kill` is the only
    method another thread (the watchdog, shutdown) may call.
    """

    def __init__(self, context: Any) -> None:
        conn, child = context.Pipe()
        self.process = context.Process(
            target=_serve, args=(child,), name="repro-serve-worker", daemon=True
        )
        try:
            self.process.start()
        except BaseException:
            conn.close()
            raise
        finally:
            child.close()
        self.pid: int = self.process.pid
        self.killed = False
        self._conn = conn

    def request(self, *message: Any) -> tuple[Any, ...]:
        """One round trip; raises :class:`WorkerLost` if the process is gone."""
        try:
            self._conn.send(message)
            reply = self._conn.recv()
        except (EOFError, OSError) as exc:
            raise WorkerLost(f"worker process {self.pid} is gone") from exc
        if reply[0] == "error":
            raise WorkerError(reply[1])
        return reply

    def kill(self) -> None:
        """SIGKILL the process, interrupting whatever slice it is in."""
        self.killed = True
        self.process.kill()

    def close(self) -> None:
        """Hang up, reap the process, and release its pipe and sentinel."""
        self._conn.close()  # an idle worker exits on the EOF
        self.process.join(5.0)
        if self.process.exitcode is None:
            self.process.kill()
            self.process.join()
        self.process.close()


class WorkerPool:
    """At most ``max_workers`` worker processes, started lazily, reused.

    The daemon runs at most ``max_workers`` jobs at once, one per job
    thread, so :meth:`acquire` never waits for a busy worker: it hands
    out an idle one or starts a new one.
    """

    def __init__(self, max_workers: int) -> None:
        _POOLS.add(self)
        self.max_workers = max_workers
        self._lock = threading.Lock()
        self._context: Any = None
        self._idle: list[SimulationWorker] = []
        self._live: set[SimulationWorker] = set()
        self._starting = 0  # slots reserved by acquires still starting a process
        self._started = 0
        self._replaced = 0
        self._closed = False

    def acquire(self) -> SimulationWorker:
        with self._lock:
            if self._closed:
                raise WorkerLost("the worker plane is shut down")
            if self._idle:
                return self._idle.pop()
            if len(self._live) + self._starting >= self.max_workers:
                raise RuntimeError(f"all {self.max_workers} worker processes are busy")
            if self._context is None:
                self._context = _context()
            context = self._context
            self._starting += 1
        # Started outside the lock: the first start waits out the
        # forkserver's preload, and stats() must not wait with it.
        try:
            worker = SimulationWorker(context)
        except BaseException:
            with self._lock:
                self._starting -= 1
            raise
        with self._lock:
            self._starting -= 1
            self._live.add(worker)
            self._started += 1
            closed = self._closed
        if closed:  # close() ran while the process started
            self.discard(worker)
            raise WorkerLost("the worker plane is shut down")
        return worker

    def release(self, worker: SimulationWorker) -> None:
        """Return a healthy worker (holding no session) to the idle set."""
        with self._lock:
            if not self._closed:
                self._idle.append(worker)
                return
            self._live.discard(worker)
        worker.close()

    def discard(self, worker: SimulationWorker) -> None:
        """Reap a killed or crashed worker; the next job starts a fresh one."""
        with self._lock:
            self._live.discard(worker)
            if not self._closed:
                self._replaced += 1
        worker.close()

    def close(self) -> None:
        """Reap the idle workers; busy ones are reaped as they come back.

        Later acquires raise :class:`WorkerLost`.
        """
        with self._lock:
            self._closed = True
            idle, self._idle = self._idle, []
            self._live.difference_update(idle)
        for worker in idle:
            worker.close()

    def kill_all(self) -> None:
        """SIGKILL every live worker (the interpreter-exit backstop)."""
        with self._lock:
            workers = list(self._live)
        for worker in workers:
            worker.kill()

    def pids(self) -> list[int]:
        with self._lock:
            return sorted(worker.pid for worker in self._live)

    def stats(self) -> dict[str, int]:
        """The ``/stats`` ``workers`` object."""
        with self._lock:
            return {
                "alive": len(self._live),
                "started": self._started,
                "replaced": self._replaced,
            }


#: Every pool, so interpreter exit can reap workers whose daemon never
#: shut down.  Workers ignore SIGTERM, so multiprocessing's own exit hook
#: (registered earlier, hence run after this one) would otherwise wait
#: on them forever.
_POOLS: weakref.WeakSet[WorkerPool] = weakref.WeakSet()


@atexit.register
def _kill_leftover_workers() -> None:
    for pool in list(_POOLS):
        pool.kill_all()
