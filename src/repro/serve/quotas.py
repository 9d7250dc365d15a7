"""Per-client admission control for the serve daemon.

A :class:`QuotaPolicy` is the server-wide limit set; a
:class:`QuotaLedger` tracks per-client in-flight runs against it.
Clients identify themselves with the ``X-Repro-Client`` header (the
daemon buckets unidentified traffic under one shared name), so quotas
are cooperative fairness, not authentication.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

from repro.serve.protocol import ServeError

__all__ = ["DEFAULT_CLIENT", "QuotaExceeded", "QuotaLedger", "QuotaPolicy"]

#: Bucket for requests that send no ``X-Repro-Client`` header.
DEFAULT_CLIENT = "anonymous"


class QuotaExceeded(ServeError):
    """Admission control refused the request (HTTP 429 / exit 5)."""

    def __init__(self, message: str, field: str | None = None) -> None:
        super().__init__("quota_exceeded", message, field)


@dataclass(frozen=True)
class QuotaPolicy:
    """Server-wide per-client limits.

    ``max_inflight``
        Concurrent non-terminal runs one client may own.  A deduped
        submission (single-flight hit on another client's run) is free.
    ``max_events``
        Telemetry replay-buffer bound per job: events beyond it are
        counted and dropped, never buffered (late stream subscribers
        see at most this many rows before the live tail).
    ``max_wall_seconds``
        Wall-clock budget per run; checked between ``run_for`` slices,
        so a run over budget fails with ``quota_exceeded`` at the next
        slice boundary.
    ``lease_seconds``
        Per-slice progress lease.  The daemon renews the lease at every
        slice boundary; a slice that outlives it is presumed wedged —
        the watchdog kills the worker process running it, fails the job
        with a structured ``lease_expired`` error, and releases the
        quota slot instead of letting a stuck worker pin it forever.
        ``inf`` disables the watchdog.
    """

    max_inflight: int = 4
    max_events: int = 10_000
    max_wall_seconds: float = 300.0
    lease_seconds: float = 60.0

    def __post_init__(self) -> None:
        if self.max_inflight <= 0:
            raise ValueError(f"max_inflight must be positive, got {self.max_inflight}")
        if self.max_events <= 0:
            raise ValueError(f"max_events must be positive, got {self.max_events}")
        if self.max_wall_seconds <= 0:
            raise ValueError(
                f"max_wall_seconds must be positive, got {self.max_wall_seconds}"
            )
        if self.lease_seconds <= 0:
            raise ValueError(
                f"lease_seconds must be positive, got {self.lease_seconds}"
            )


class QuotaLedger:
    """Thread-safe in-flight run counts, one slot ledger per client."""

    def __init__(self, policy: QuotaPolicy) -> None:
        self.policy = policy
        self._lock = threading.Lock()
        self._inflight: dict[str, int] = {}

    def acquire(self, client: str, *, force: bool = False) -> None:
        """Claim one in-flight slot for ``client`` or raise :class:`QuotaExceeded`.

        ``force`` claims the slot regardless of the limit — used for
        journal-recovered jobs, which were already admitted in the
        daemon's previous life and must not be dropped at restart just
        because they all arrive at once.  The slot is still counted (and
        released), so fresh submissions see honest pressure.
        """
        with self._lock:
            held = self._inflight.get(client, 0)
            if held >= self.policy.max_inflight and not force:
                raise QuotaExceeded(
                    f"client {client!r} already has {held} runs in flight "
                    f"(limit {self.policy.max_inflight})"
                )
            self._inflight[client] = held + 1

    def release(self, client: str) -> None:
        """Return a slot.  Releasing an unheld slot is a programming error."""
        with self._lock:
            held = self._inflight.get(client, 0)
            if held <= 0:
                raise RuntimeError(f"release without acquire for client {client!r}")
            if held == 1:
                del self._inflight[client]
            else:
                self._inflight[client] = held - 1

    def snapshot(self) -> dict[str, int]:
        """Current in-flight counts by client (for ``/stats``)."""
        with self._lock:
            return dict(self._inflight)
