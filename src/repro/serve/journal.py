"""The daemon's crash-consistent run journal.

The result cache already makes *finished* work durable; the journal
makes *accepted* work durable.  It is an append-only JSONL file beside
the cache (``serve-journal.jsonl`` under ``--cache-dir``) recording two
operations::

    {"kind": "repro-serve-journal", "version": 1, "format": 4}
    {"op": "submitted", "job_id": "job-000001", "key": "3f2a...", "client": "alice", "spec": {...}}
    {"op": "terminal", "job_id": "job-000001", "state": "done"}

A job that was submitted but never reached a terminal record is exactly
the work a crashed daemon lost; :meth:`RunJournal.recover` returns
those entries so a restarted daemon re-admits them under their original
job ids.  Because every simulation is deterministic in its spec, the
re-run (or the cache hit, when the result landed before the crash)
reproduces the original result byte for byte.

Append-only for the same reason as :class:`~repro.sweep.SweepManifest`:
O(1) per state change, and a crash mid-append tears at most one line.
Robustness beats forensics here — :meth:`recover` *skips* corrupt lines
(counting them) instead of refusing to start, because the worst case of
a lost record is a job that deterministically re-runs.  Recovery also
compacts: the journal is rewritten (atomically) to hold only the
still-pending entries, so it does not grow across restarts.
"""

from __future__ import annotations

import json
import os
import re
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from repro.atomic import write_atomic
from repro.faults import InjectedCrash, torn_write
from repro.serialize import FORMAT_VERSION

__all__ = ["JOURNAL_VERSION", "RecoveredJob", "RunJournal"]

JOURNAL_VERSION = 1
_KIND = "repro-serve-journal"
_JOB_ID_PATTERN = re.compile(r"^job-(\d+)$")


@dataclass(frozen=True)
class RecoveredJob:
    """One submitted-but-unfinished job read back from the journal."""

    job_id: str
    key: str
    client: str
    spec: dict[str, Any]  # the encoded (already-normalized) RunSpec document


class RunJournal:
    """Append-only submitted/terminal journal for one daemon cache dir.

    Appends are serialized under an internal lock: submissions land from
    the asyncio plane while terminal records land from job threads.
    """

    def __init__(self, path: str | os.PathLike[str]) -> None:
        self.path = Path(path)
        self._lock = threading.Lock()
        self.corrupt_lines = 0
        # Set when a torn (injected) append left an unterminated
        # fragment at EOF; the next append starts with a newline so the
        # fragment stays one (skippable) corrupt line instead of
        # swallowing the new record.
        self._needs_newline = False

    # -- appends ------------------------------------------------------------------
    def record_submitted(
        self, job_id: str, key: str, client: str, spec: dict[str, Any]
    ) -> None:
        """Journal an admitted job.  Raises on failure — the caller must
        treat an unjournalable admission as a refused admission, or the
        durability the journal promises is silently void."""
        self._append(
            {
                "op": "submitted",
                "job_id": job_id,
                "key": key,
                "client": client,
                "spec": spec,
            }
        )

    def record_terminal(self, job_id: str, state: str) -> None:
        """Journal a job reaching ``done``/``failed``/``cancelled``."""
        self._append({"op": "terminal", "job_id": job_id, "state": state})

    def _append(self, entry: dict[str, Any]) -> None:
        with self._lock:
            line = (json.dumps(entry, sort_keys=True) + "\n").encode("utf-8")
            if self._needs_newline:
                line = b"\n" + line
            payload, torn = torn_write("journal.append", line)
            self._ensure_header()
            with open(self.path, "ab") as stream:
                stream.write(payload)
            if torn:
                self._needs_newline = not payload.endswith(b"\n")
                raise InjectedCrash(f"torn journal append to {self.path}")
            self._needs_newline = False

    def _ensure_header(self) -> None:
        if self.path.exists():
            return
        header = {"kind": _KIND, "version": JOURNAL_VERSION, "format": FORMAT_VERSION}
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with open(self.path, "x", encoding="utf-8") as stream:
            stream.write(json.dumps(header, sort_keys=True) + "\n")

    # -- recovery -----------------------------------------------------------------
    def recover(self) -> tuple[list[RecoveredJob], int]:
        """Read the journal back; returns ``(pending jobs, next job number)``.

        Pending jobs are in original submission order.  The journal is
        then compacted to exactly those entries.  A journal written by
        a different serialization format version is rotated aside
        (``.stale``) and treated as empty — its specs may no longer
        decode, and a fresh daemon must still come up.
        """
        if not self.path.exists():
            return [], 1
        try:
            with open(self.path, "r", encoding="utf-8") as stream:
                lines = stream.read().splitlines()
        except OSError:
            return [], 1
        if not lines:
            return [], 1
        header = self._decode_header(lines[0])
        if header is None:
            self._rotate_stale()
            return [], 1
        pending: dict[str, RecoveredJob] = {}
        max_number = 0
        for line in lines[1:]:
            entry = self._decode_line(line)
            if entry is None:
                continue
            job_id = entry.get("job_id")
            if not isinstance(job_id, str):
                self.corrupt_lines += 1
                continue
            match = _JOB_ID_PATTERN.match(job_id)
            if match:
                max_number = max(max_number, int(match.group(1)))
            if entry.get("op") == "submitted":
                spec = entry.get("spec")
                key = entry.get("key")
                client = entry.get("client")
                if isinstance(spec, dict) and isinstance(key, str) and isinstance(client, str):
                    pending[job_id] = RecoveredJob(
                        job_id=job_id, key=key, client=client, spec=spec
                    )
                else:
                    self.corrupt_lines += 1
            elif entry.get("op") == "terminal":
                pending.pop(job_id, None)
            else:
                self.corrupt_lines += 1
        recovered = list(pending.values())
        self._compact(recovered)
        return recovered, max_number + 1

    def _decode_header(self, line: str) -> dict[str, Any] | None:
        try:
            header = json.loads(line)
        except ValueError:
            return None
        if not isinstance(header, dict) or header.get("kind") != _KIND:
            return None
        if header.get("version") != JOURNAL_VERSION:
            return None
        if header.get("format") != FORMAT_VERSION:
            return None
        return header

    def _decode_line(self, line: str) -> dict[str, Any] | None:
        if not line.strip():
            return None
        try:
            entry = json.loads(line)
        except ValueError:
            self.corrupt_lines += 1
            return None
        if not isinstance(entry, dict):
            self.corrupt_lines += 1
            return None
        return entry

    def _compact(self, pending: list[RecoveredJob]) -> None:
        """Atomically rewrite the journal to header + pending entries."""
        header = {"kind": _KIND, "version": JOURNAL_VERSION, "format": FORMAT_VERSION}
        lines = [json.dumps(header, sort_keys=True)]
        for job in pending:
            entry = {
                "op": "submitted",
                "job_id": job.job_id,
                "key": job.key,
                "client": job.client,
                "spec": job.spec,
            }
            lines.append(json.dumps(entry, sort_keys=True))
        data = ("\n".join(lines) + "\n").encode("utf-8")
        try:
            write_atomic(self.path, lambda stream: stream.write(data))
        except OSError:
            pass  # the uncompacted journal still recovers the same jobs

    def _rotate_stale(self) -> None:
        """Move an unreadable/old-format journal aside and start fresh."""
        try:
            os.replace(self.path, self.path.with_suffix(".stale"))
        except OSError:
            pass
