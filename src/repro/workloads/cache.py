"""Binary workload cache: parse SWF once, load the columns ever after.

Text SWF parsing is O(trace) Python per run — a million-job trace costs
tens of seconds before the first event is simulated.  This module
stores a parsed trace as a compressed ``.npz`` of parallel numpy
columns next to the source file (or in an explicit cache directory), so
subsequent loads are a single binary read plus bulk ``Job``
materialisation.

Keys and invalidation
---------------------

Every cache entry embeds a key built from

* the SHA-256 of the source file's bytes (so *any* edit to the trace
  invalidates the entry),
* the cleaning configuration (``drop_invalid`` / ``clamp_runtime`` —
  entries for different cleanings coexist),
* :data:`CACHE_VERSION` (bumped whenever the column layout changes).

A mismatched, corrupt or unreadable entry is silently re-parsed and
rewritten; deleting the ``.npz`` is always safe.  Set the environment
variable ``REPRO_WORKLOAD_CACHE=0`` to disable the cache entirely.

:func:`cached_jobs` provides the same mechanism for *generated*
workloads keyed by an explicit string (model, length, seed) — the
benchmark harness uses it so million-job synthetic traces are drawn
once per machine, not once per run.
"""

from __future__ import annotations

import hashlib
import json
import os
import zipfile
from pathlib import Path
from typing import Callable, Sequence

from repro.atomic import write_atomic
from repro.scheduling.job import Job
from repro.workloads.swf import SwfHeader, read_swf

try:  # numpy is an optional accelerator, never a hard dependency
    import numpy as _np
except ImportError:  # pragma: no cover - exercised only without numpy
    _np = None

__all__ = [
    "CACHE_VERSION",
    "cache_enabled",
    "swf_cache_path",
    "read_swf_cached",
    "jobs_to_columns",
    "jobs_from_columns",
    "cached_jobs",
]

#: Bump when the column layout or Job semantics change.
CACHE_VERSION = 1

_FLOAT_FIELDS = ("submit_time", "runtime", "requested_time", "beta")
_INT_FIELDS = ("job_id", "size", "user_id", "group_id", "executable")


def cache_enabled() -> bool:
    """Whether the on-disk workload cache is active (env kill switch)."""
    return _np is not None and os.environ.get("REPRO_WORKLOAD_CACHE", "1") != "0"


def swf_cache_path(path: str | os.PathLike[str]) -> Path:
    """The sidecar cache file for an SWF trace (``<name>.swf.cache.npz``)."""
    return Path(f"{os.fspath(path)}.cache.npz")


# -- column codec ---------------------------------------------------------------
def jobs_to_columns(jobs: Sequence[Job]) -> dict:
    """Encode jobs as parallel numpy columns (``beta=None`` → NaN)."""
    assert _np is not None
    columns = {
        "job_id": _np.array([job.job_id for job in jobs], dtype=_np.int64),
        "size": _np.array([job.size for job in jobs], dtype=_np.int64),
        "user_id": _np.array([job.user_id for job in jobs], dtype=_np.int64),
        "group_id": _np.array([job.group_id for job in jobs], dtype=_np.int64),
        "executable": _np.array([job.executable for job in jobs], dtype=_np.int64),
        "submit_time": _np.array([job.submit_time for job in jobs], dtype=_np.float64),
        "runtime": _np.array([job.runtime for job in jobs], dtype=_np.float64),
        "requested_time": _np.array([job.requested_time for job in jobs], dtype=_np.float64),
        "beta": _np.array(
            [float("nan") if job.beta is None else job.beta for job in jobs],
            dtype=_np.float64,
        ),
    }
    return columns


def jobs_from_columns(columns) -> list[Job]:
    """Materialise jobs from parallel columns.

    Bulk ``tolist`` conversion amortises the numpy-scalar boxing; the
    jobs themselves go through the normal validated constructor — a
    ``__dict__``-stuffing fast path was measured ~1.8x quicker but
    doubles per-object memory by defeating CPython's key-sharing
    instance dicts, the wrong trade at a million jobs.
    """
    betas = columns["beta"].tolist()
    return [
        Job(
            job_id=job_id,
            submit_time=submit,
            runtime=runtime,
            requested_time=requested,
            size=size,
            user_id=user,
            group_id=group,
            executable=executable,
            beta=None if beta != beta else beta,  # NaN encodes None
        )
        for job_id, submit, runtime, requested, size, user, group, executable, beta in zip(
            columns["job_id"].tolist(),
            columns["submit_time"].tolist(),
            columns["runtime"].tolist(),
            columns["requested_time"].tolist(),
            columns["size"].tolist(),
            columns["user_id"].tolist(),
            columns["group_id"].tolist(),
            columns["executable"].tolist(),
            betas,
            strict=True,
        )
    ]


# -- entry I/O ------------------------------------------------------------------
def _write_entry(path: Path, key: str, jobs: Sequence[Job], meta: dict) -> None:
    """Atomically persist one cache entry; failures are non-fatal."""
    np = _np
    assert np is not None
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = jobs_to_columns(jobs)
        payload["key"] = np.array(key)
        payload["meta"] = np.array(json.dumps(meta))
        write_atomic(path, lambda stream: np.savez_compressed(stream, **payload))
    except OSError:
        pass  # read-only checkout, full disk, ...: caching is best-effort


def _read_entry(path: Path, key: str) -> tuple[list[Job], dict] | None:
    assert _np is not None
    try:
        with _np.load(path, allow_pickle=False) as data:
            if str(data["key"]) != key:
                return None
            meta = json.loads(str(data["meta"]))
            jobs = jobs_from_columns(data)
        return jobs, meta
    except (OSError, KeyError, ValueError, json.JSONDecodeError, zipfile.BadZipFile):
        return None  # missing or corrupt entries are re-parsed


def _file_sha256(path: str | os.PathLike[str]) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as stream:
        for chunk in iter(lambda: stream.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def read_swf_cached(
    path: str | os.PathLike[str],
    *,
    drop_invalid: bool = True,
    clamp_runtime: bool = True,
    cache: bool | None = None,
    cache_path: str | os.PathLike[str] | None = None,
) -> tuple[SwfHeader, list[Job]]:
    """:func:`repro.workloads.swf.read_swf` through the binary cache.

    ``cache=None`` follows :func:`cache_enabled`; ``cache=False`` always
    parses the text.  ``cache_path`` overrides the sidecar location.
    """
    use_cache = cache_enabled() if cache is None else (cache and _np is not None)
    if not use_cache:
        return read_swf(path, drop_invalid=drop_invalid, clamp_runtime=clamp_runtime)
    entry = Path(cache_path) if cache_path is not None else swf_cache_path(path)
    key = json.dumps(
        {
            "version": CACHE_VERSION,
            "kind": "swf",
            "sha256": _file_sha256(path),
            "drop_invalid": drop_invalid,
            "clamp_runtime": clamp_runtime,
        },
        sort_keys=True,
    )
    cached = _read_entry(entry, key)
    if cached is not None:
        jobs, meta = cached
        header = SwfHeader(fields=dict(meta.get("fields", {})), comments=list(meta.get("comments", [])))
        return header, jobs
    header, jobs = read_swf(path, drop_invalid=drop_invalid, clamp_runtime=clamp_runtime)
    _write_entry(entry, key, jobs, {"fields": header.fields, "comments": header.comments})
    return header, jobs


def cached_jobs(
    cache_dir: str | os.PathLike[str] | None,
    key_parts: dict,
    builder: Callable[[], list[Job]],
) -> list[Job]:
    """Memoise a generated workload on disk under ``cache_dir``.

    ``key_parts`` must uniquely determine the builder's output (model
    name, job count, seed, generator version ...).  With ``cache_dir``
    unset (or numpy missing) the builder runs directly.
    """
    if cache_dir is None or not cache_enabled():
        return builder()
    key = json.dumps({"version": CACHE_VERSION, **key_parts}, sort_keys=True)
    digest = hashlib.sha256(key.encode()).hexdigest()[:32]
    entry = Path(cache_dir) / f"workload_{digest}.npz"
    cached = _read_entry(entry, key)
    if cached is not None:
        return cached[0]
    jobs = builder()
    _write_entry(entry, key, jobs, {})
    return jobs
