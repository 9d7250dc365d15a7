"""Crash-safe sweep orchestration: an on-disk manifest plus resume.

A fleet-scale sweep (the 60-run paper grids, or a 10^5-run parameter
study) should survive being interrupted — a killed process, a crashed
worker, a rebooted machine — without losing the work already done.
:func:`run_sweep` layers that on :class:`~repro.batch.BatchRunner`:

* the **result cache** (``cache_dir``) already persists every finished
  run, keyed by spec; a resumed sweep re-runs only what is missing;
* the **sweep manifest** (``manifest_path``) is an append-only JSONL
  journal recording per-spec status (``done`` / ``failed``) plus a
  header that fingerprints the spec set, so a resume against a
  *different* grid is rejected instead of silently mixing sweeps.

The journal is append-only on purpose: completing a spec costs one
``write`` of one line (O(1)), not a rewrite of an N-entry document
(O(N) per completion, O(N^2) per sweep), and a crash mid-append leaves
at worst one torn trailing line, which loading tolerates.

Usage::

    report = run_sweep(specs, manifest_path="sweep.jsonl",
                       cache_dir=".repro-cache", max_workers=8,
                       on_error="retry")
    # ... interrupted?  Run the same call again with resume=True:
    report = run_sweep(specs, manifest_path="sweep.jsonl",
                       cache_dir=".repro-cache", max_workers=8,
                       on_error="retry", resume=True)

The resumed call re-simulates only the specs with no cached result;
everything else is served from disk, and the final result list is
identical to an uninterrupted sweep.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence

from repro.api import normalize_spec
from repro.batch import BatchRunner, SpecFailure
from repro.scheduling.result import SimulationResult
from repro.serialize import FORMAT_VERSION, spec_key, spec_to_dict
from repro.experiments.config import RunSpec

__all__ = ["SweepManifest", "SweepReport", "run_sweep"]

_HEADER_KIND = "sweep-manifest"


@dataclass(frozen=True)
class SweepReport:
    """What a sweep did, beyond the results themselves.

    ``results`` is in input order (``None`` at the positions of
    terminally-failed specs); ``completed`` counts the specs simulated
    by *this* call, ``skipped`` the unique specs served from the result
    cache (on a resume: the work the previous call already did).
    """

    results: list[SimulationResult | None]
    failures: tuple[SpecFailure, ...]
    total: int
    completed: int
    skipped: int


class SweepManifest:
    """The append-only JSONL journal behind one sweep.

    Line 1 is a header carrying the serialisation format version, the
    spec count and a digest over the sorted spec keys; every subsequent
    line records one spec reaching a terminal state::

        {"kind": "sweep-manifest", "version": 4, "total": 60, "digest": "..."}
        {"status": "done", "key": "3f2a..."}
        {"status": "failed", "key": "9c1b...", "error": "...", "attempts": 3, "spec": {...}}

    Failed entries embed the full spec dict so a post-mortem can name
    the failing run without the original grid-building code.
    """

    def __init__(self, path: str | os.PathLike[str], digest: str, total: int) -> None:
        self.path = Path(path)
        self.digest = digest
        self.total = total
        self.done: set[str] = set()
        self.failed: dict[str, dict] = {}

    # -- construction -----------------------------------------------------------
    @staticmethod
    def digest_of(specs: Sequence[RunSpec]) -> str:
        """A stable fingerprint of the (unique) spec set, order-free."""
        keys = sorted({spec_key(spec) for spec in specs})
        return hashlib.sha256("\n".join(keys).encode("ascii")).hexdigest()[:32]

    @classmethod
    def begin(cls, path: str | os.PathLike[str], specs: Sequence[RunSpec]) -> "SweepManifest":
        """Start a fresh manifest (refuses to clobber an existing one)."""
        path = Path(path)
        if path.exists():
            raise FileExistsError(
                f"sweep manifest {path} already exists; resume it or remove it"
            )
        digest = cls.digest_of(specs)
        total = len({spec_key(spec) for spec in specs})
        manifest = cls(path, digest, total)
        path.parent.mkdir(parents=True, exist_ok=True)
        header = {
            "kind": _HEADER_KIND,
            "version": FORMAT_VERSION,
            "total": total,
            "digest": digest,
        }
        with open(path, "w", encoding="utf-8") as stream:
            stream.write(json.dumps(header) + "\n")
        return manifest

    @classmethod
    def load(cls, path: str | os.PathLike[str]) -> "SweepManifest":
        """Read a manifest back, tolerating one torn trailing line."""
        path = Path(path)
        with open(path, "r", encoding="utf-8") as stream:
            lines = stream.read().splitlines()
        if not lines:
            raise ValueError(f"sweep manifest {path} is empty")
        header = json.loads(lines[0])
        if header.get("kind") != _HEADER_KIND:
            raise ValueError(f"{path} is not a sweep manifest")
        if header.get("version") != FORMAT_VERSION:
            raise ValueError(
                f"sweep manifest {path} was written by format version "
                f"{header.get('version')!r}, expected {FORMAT_VERSION}; "
                f"re-run the sweep from scratch"
            )
        manifest = cls(path, header["digest"], header["total"])
        for index, line in enumerate(lines[1:], start=2):
            try:
                entry = json.loads(line)
            except ValueError:
                if index == len(lines):
                    continue  # a crash mid-append tears only the last line
                raise ValueError(f"corrupt sweep manifest {path}: line {index}")
            if entry.get("status") == "done":
                manifest.done.add(entry["key"])
                manifest.failed.pop(entry["key"], None)
            elif entry.get("status") == "failed":
                manifest.failed[entry["key"]] = entry
        return manifest

    @classmethod
    def resume(
        cls, path: str | os.PathLike[str], specs: Sequence[RunSpec]
    ) -> "SweepManifest":
        """Load ``path`` and verify it journals exactly this spec set."""
        manifest = cls.load(path)
        digest = cls.digest_of(specs)
        if digest != manifest.digest:
            raise ValueError(
                f"sweep manifest {path} journals a different spec set "
                f"(digest {manifest.digest}, grid has {digest}); "
                f"start a fresh manifest for a changed grid"
            )
        return manifest

    # -- journaling -------------------------------------------------------------
    def _append(self, entry: dict) -> None:
        with open(self.path, "a", encoding="utf-8") as stream:
            stream.write(json.dumps(entry) + "\n")

    def record_done(self, spec: RunSpec) -> None:
        key = spec_key(spec)
        self._append({"status": "done", "key": key})
        self.done.add(key)
        self.failed.pop(key, None)

    def record_failed(self, spec: RunSpec, error: str, attempts: int = 1) -> None:
        key = spec_key(spec)
        entry = {
            "status": "failed",
            "key": key,
            "error": error,
            "attempts": attempts,
            "spec": spec_to_dict(spec),
        }
        self._append(entry)
        self.failed[key] = entry

    @property
    def remaining(self) -> int:
        return self.total - len(self.done)

    def describe(self) -> str:
        return (
            f"{len(self.done)}/{self.total} specs done, "
            f"{len(self.failed)} failed, {self.remaining} remaining"
        )


def run_sweep(
    specs: Sequence[RunSpec],
    *,
    manifest_path: str | os.PathLike[str],
    cache_dir: str | os.PathLike[str],
    resume: bool = False,
    max_workers: int | None = None,
    validate: bool = False,
    default_n_jobs: int | None = None,
    aggregates_only: bool = False,
    on_error: str = "skip",
    retries: int = 2,
    progress: Callable[[RunSpec, SimulationResult], None] | None = None,
) -> SweepReport:
    """Run ``specs`` as a crash-safe, resumable sweep.

    The result cache under ``cache_dir`` holds the actual work; the
    manifest at ``manifest_path`` journals per-spec status.  With
    ``resume=True`` an existing manifest is validated against the spec
    set and only uncached specs are simulated; without it an existing
    manifest is an error (so two different sweeps cannot silently share
    a journal).  ``on_error`` defaults to ``"skip"`` here — a sweep
    durable enough to want a manifest usually also wants to outlive one
    bad spec; failures are journaled and reported, and a later resume
    retries them.
    """
    runner = BatchRunner(
        max_workers=max_workers,
        cache_dir=cache_dir,
        validate=validate,
        default_n_jobs=default_n_jobs,
        aggregates_only=aggregates_only,
        on_error=on_error,
        retries=retries,
    )
    if default_n_jobs is not None:
        normalized = [normalize_spec(spec, default_n_jobs) for spec in specs]
    else:
        normalized = [normalize_spec(spec) for spec in specs]
    if resume and Path(manifest_path).exists():
        manifest = SweepManifest.resume(manifest_path, normalized)
    else:
        manifest = SweepManifest.begin(manifest_path, normalized)

    def on_progress(spec: RunSpec, result: SimulationResult) -> None:
        manifest.record_done(spec)
        if progress is not None:
            progress(spec, result)

    def on_failure(spec: RunSpec, error: str) -> None:
        attempts = next(
            (f.attempts for f in reversed(runner.failures) if f.spec == spec), 1
        )
        manifest.record_failed(spec, error, attempts)

    results = runner.run(normalized, progress=on_progress, on_failure=on_failure)
    # Cache hits were done before this call; journal them as done too,
    # so a manifest resumed twice converges instead of re-listing them
    # as remaining.
    seen: set[str] = set()
    for spec, result in zip(normalized, results, strict=True):
        key = spec_key(spec)
        if result is not None and key not in manifest.done and key not in seen:
            manifest.record_done(spec)
        seen.add(key)
    return SweepReport(
        results=results,
        failures=runner.failures,
        total=manifest.total,
        completed=runner.cache_misses,
        skipped=runner.cache_hits,
    )
