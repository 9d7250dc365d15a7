"""The serve wire protocol: error schema, job states, telemetry rows.

One error schema everywhere: a failed HTTP request and a failed CLI
invocation (``repro --json``) both produce a single JSON object shaped

    {"error": {"code": "...", "message": "...", "field": "..."}}

where ``code`` is drawn from the stable vocabulary below and maps to
both an HTTP status (on the wire) and a process exit code (in the
shell).  ``field`` is the offending spec field path when the failure is
a validation error (see :class:`repro.serialize.SpecValidationError`),
else ``null``.

Telemetry rows reuse the :class:`~repro.instruments.EventTraceRecorder`
row shape — the event's dataclass fields plus an ``"event"`` type tag —
so a streamed trace and a recorded one are interchangeable.  A stream
always ends with one ``{"event": "EndOfStream", ...}`` sentinel row
carrying the job's terminal state.
"""

from __future__ import annotations

import json
from dataclasses import fields as dataclass_fields
from typing import Any

from repro.sim.events import LifecycleEvent

__all__ = [
    "PROTOCOL_VERSION",
    "ERROR_CODES",
    "HTTP_STATUS",
    "EXIT_CODES",
    "ServeError",
    "JOB_STATES",
    "TERMINAL_STATES",
    "END_OF_STREAM",
    "canonical_result_bytes",
    "event_to_wire",
    "ndjson_line",
    "ndjson_to_sse",
    "sse_line",
    "error_json",
]

#: Bumped when the request/response shapes change incompatibly.
PROTOCOL_VERSION = 1

# -- error vocabulary ---------------------------------------------------------
#: ``code -> (HTTP status, CLI exit code)``.  Exit codes are part of the
#: CLI contract (scripts branch on them); append, never renumber.
_ERROR_TABLE: dict[str, tuple[int, int]] = {
    "invalid_request": (400, 2),  # malformed HTTP/JSON envelope or flags
    "invalid_spec": (400, 3),  # RunSpec document failed validation
    "not_found": (404, 4),  # no such job (or route)
    "quota_exceeded": (429, 5),  # per-client admission control refused
    "cancelled": (409, 6),  # the job was cancelled; no result exists
    "not_ready": (409, 7),  # result requested before the run finished
    "unavailable": (503, 8),  # server shutting down / shedding load
    "simulation_failed": (500, 9),  # the run itself raised
    "server_error": (500, 1),  # anything else
    "lease_expired": (500, 10),  # worker slice outlived its lease; watchdog killed it
}

ERROR_CODES = frozenset(_ERROR_TABLE)
HTTP_STATUS = {code: status for code, (status, _exit) in _ERROR_TABLE.items()}
EXIT_CODES = {code: exit_code for code, (_status, exit_code) in _ERROR_TABLE.items()}


class ServeError(Exception):
    """A structured protocol failure.

    Raised server-side (rendered as the HTTP error payload) and
    re-raised client-side after decoding that payload, so callers on
    both ends handle one exception type.  ``field`` locates the
    offending spec field for validation failures.  ``retry_after``
    (seconds) rides along on load-shedding 503s — the server renders it
    as a ``Retry-After`` header and embeds it in the payload, and the
    client's backoff honours it.
    """

    def __init__(
        self,
        code: str,
        message: str,
        field: str | None = None,
        *,
        retry_after: float | None = None,
    ) -> None:
        if code not in ERROR_CODES:
            raise ValueError(f"unknown error code {code!r}")
        super().__init__(f"[{code}] {message}" + (f" (field: {field})" if field else ""))
        self.code = code
        self.message = message
        self.field = field
        self.retry_after = retry_after

    @property
    def status(self) -> int:
        """The HTTP status this error renders as."""
        return HTTP_STATUS[self.code]

    @property
    def exit_code(self) -> int:
        """The stable process exit code for CLI surfaces."""
        return EXIT_CODES[self.code]

    def payload(self) -> dict[str, Any]:
        """The JSON body: ``{"error": {"code", "message", "field"}}``.

        ``retry_after`` is embedded only when set, so payloads without
        one keep the exact historical shape.
        """
        error: dict[str, Any] = {
            "code": self.code,
            "message": self.message,
            "field": self.field,
        }
        if self.retry_after is not None:
            error["retry_after"] = self.retry_after
        return {"error": error}

    @classmethod
    def from_payload(cls, data: dict[str, Any]) -> "ServeError":
        """Rebuild from a decoded error payload (client side)."""
        error = data.get("error")
        if not isinstance(error, dict) or "code" not in error:
            return cls("server_error", f"malformed error payload: {data!r}")
        code = error["code"]
        if code not in ERROR_CODES:
            code = "server_error"
        retry_after = error.get("retry_after")
        if not isinstance(retry_after, (int, float)):
            retry_after = None
        return cls(
            code,
            str(error.get("message", "")),
            error.get("field"),
            retry_after=retry_after,
        )


def error_json(error: ServeError) -> str:
    """One line of JSON for the error — the ``--json`` stderr format."""
    return json.dumps(error.payload(), sort_keys=True, separators=(",", ":"))


# -- job states ---------------------------------------------------------------
QUEUED = "queued"
RUNNING = "running"
DONE = "done"
FAILED = "failed"
CANCELLED = "cancelled"

JOB_STATES = (QUEUED, RUNNING, DONE, FAILED, CANCELLED)
TERMINAL_STATES = frozenset({DONE, FAILED, CANCELLED})

#: The sentinel ``event`` tag closing every telemetry stream.
END_OF_STREAM = "EndOfStream"


# -- result documents ---------------------------------------------------------
def canonical_result_bytes(payload: dict[str, Any]) -> bytes:
    """The wire encoding of a result document: sorted-key compact JSON.

    Both sides of the byte-identity contract use this — the worker
    process when it serialises a finished run, and any client comparing
    against an in-process ``result_to_dict(Simulation(spec).run())``.
    """
    return json.dumps(payload, sort_keys=True, separators=(",", ":")).encode("utf-8")


# -- telemetry rows -----------------------------------------------------------
#: Per event class: its ``"event"`` tag and field names, in order.
_WIRE_SHAPES: dict[type, tuple[str, tuple[str, ...]]] = {}

#: ``json.dumps(row, separators=(",", ":"))`` without building an
#: encoder per call (telemetry encodes thousands of rows per run).
_encode_compact = json.JSONEncoder(separators=(",", ":")).encode


def event_to_wire(event: LifecycleEvent) -> dict[str, Any]:
    """One lifecycle event as a JSON-ready row.

    The exact :class:`~repro.instruments.EventTraceRecorder` row shape:
    the frozen dataclass's fields plus an ``"event"`` type tag.
    """
    shape = _WIRE_SHAPES.get(type(event))
    if shape is None:
        names = tuple(field.name for field in dataclass_fields(event))
        shape = _WIRE_SHAPES[type(event)] = (type(event).__name__, names)
    tag, names = shape
    row: dict[str, Any] = {"event": tag}
    for name in names:
        row[name] = getattr(event, name)
    return row


def ndjson_line(row: dict[str, Any]) -> bytes:
    """Encode one row as a newline-delimited-JSON line."""
    return (_encode_compact(row) + "\n").encode("utf-8")


def sse_line(row: dict[str, Any]) -> bytes:
    """Encode one row as a Server-Sent-Events ``data:`` frame."""
    return b"data: " + json.dumps(row, separators=(",", ":")).encode("utf-8") + b"\n\n"


def ndjson_to_sse(line: bytes) -> bytes:
    """Re-frame one :func:`ndjson_line` as the :func:`sse_line` of its row."""
    return b"data: " + line[:-1] + b"\n\n"
