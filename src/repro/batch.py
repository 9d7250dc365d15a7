"""Parallel batch execution of :class:`RunSpec` lists.

:class:`BatchRunner` fans a list of specs out over a
``concurrent.futures.ProcessPoolExecutor`` and returns results in the
*input* order, deduplicating identical specs.  Because every simulation
is deterministic in its spec, the parallel results are identical — byte
for byte, via :mod:`repro.serialize` — to a serial run of the same
list; a test pins this.

Workloads are resolved **once, in the parent**: every distinct
``(source, workload, n_jobs, seed)`` bundle is materialised before the
pool spawns and shared with the workers through fork-inherited memory
(:data:`_WORKLOAD_STORE`), so an 8-run sweep over one 50k-job trace
parses/generates that trace once instead of eight times.  On platforms
whose default start method is not ``fork``, workers simply re-resolve
from the spec — the results are identical either way.

Results stream back incrementally: each completed run is written to the
on-disk cache (and handed to the optional ``progress`` callback) as it
lands, so a crashed sweep resumes from everything already finished.

The runner is fault tolerant.  A worker exception is captured and
attributed to its spec instead of aborting the batch; ``on_error``
selects whether that raises (default), skips the spec, or retries it.
A worker *death* (``BrokenProcessPool`` — an ``os._exit``, a segfault,
the OOM killer) first lands every result that completed in the same
batch, then — under ``"skip"``/``"retry"`` — respawns the pool and
re-runs the specs that were in flight one at a time, so the crash is
attributed to the spec that actually caused it and innocent bystanders
are simply re-run.  Failures are reported by spec identity on
:attr:`BatchRunner.failures`.

Two features keep fleet-scale sweeps (10^4-10^6 runs) inside one
machine's memory: ``aggregates_only=True`` makes workers reduce each
result to :class:`~repro.scheduling.result.ResultAggregates` before it
crosses the process boundary, and :meth:`BatchRunner.run_streaming`
hands each result to a reduction callback without accumulating the
result list at all.

The on-disk cache (one JSON file per spec, keyed by the canonical spec
hash) makes repeated sweeps — the 60-run grids behind Figures 3-5 and
7-9 — free after the first run, across processes and sessions.
"""

from __future__ import annotations

import itertools
import json
import multiprocessing
import os
from collections import deque
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Sequence

from repro.api import Simulation, normalize_spec
from repro.faults import InjectedCrash, fire as fault_fire, torn_write as fault_torn_write
from repro.registry import WORKLOAD_SOURCES
from repro.serialize import (
    FORMAT_VERSION,
    result_from_dict,
    result_to_dict,
    spec_key,
    spec_to_dict,
)

if TYPE_CHECKING:  # imported for annotations only; avoids package cycles
    from repro.experiments.config import RunSpec
    from repro.scheduling.result import SimulationResult
    from repro.workloads.sources import WorkloadBundle

__all__ = ["BatchReport", "BatchRunner", "SpecFailure"]

#: Fork-shared workload bundles, keyed by (source, workload, n_jobs, seed).
#: Populated in the parent immediately before the pool forks; workers
#: inherit it copy-on-write and never mutate it.
_WORKLOAD_STORE: dict[tuple, "WorkloadBundle"] = {}

#: Monotonic per-process token stream for cache temp names.  Keying the
#: temp file by pid alone is not enough: two runners in threads of one
#: process storing the same spec would write the same temp path and tear
#: each other's rename.
_TEMP_TOKENS = itertools.count()

_ON_ERROR_MODES = ("raise", "skip", "retry")


@dataclass(frozen=True)
class SpecFailure:
    """One spec's terminal failure, attributed by identity.

    ``error`` is the repr of the last exception (a worker death reads
    ``BrokenProcessPool``); ``attempts`` counts how many times the spec
    was tried before the runner gave up on it.
    """

    spec: "RunSpec"
    error: str
    attempts: int


@dataclass(frozen=True)
class BatchReport:
    """What :meth:`BatchRunner.run_streaming` hands back instead of results."""

    total: int
    unique: int
    completed: int
    failures: tuple[SpecFailure, ...]
    cache_hits: int
    cache_misses: int


def _workload_key(spec: RunSpec) -> tuple:
    return (spec.source, spec.workload, spec.n_jobs, spec.seed)


def _build_simulation(spec: RunSpec, validate: bool) -> Simulation:
    """A Simulation over the shared bundle when one is available."""
    bundle = _WORKLOAD_STORE.get(_workload_key(spec))
    if bundle is None:
        return Simulation(spec, validate=validate)
    from repro.cluster.machine import Machine  # deferred: avoids import cycles

    machine = Machine(bundle.machine_name, bundle.total_cpus).scaled(spec.size_factor)
    return Simulation(spec, validate=validate, jobs=bundle.jobs, machine=machine)


def _execute(payload: tuple[RunSpec, bool, bool]) -> SimulationResult:
    """Worker entry point (module-level so it pickles).

    With ``aggregates_only`` the reduction happens *here*, in the
    worker, so the per-job outcomes tuple never crosses the process
    boundary and the parent only ever holds headline metrics.
    """
    spec, validate, aggregates_only = payload
    result = _build_simulation(spec, validate).run()
    if aggregates_only:
        result = result.to_aggregates()
    return result


class BatchRunner:
    """Runs many :class:`RunSpec` simulations, optionally in parallel.

    Parameters
    ----------
    max_workers:
        Worker processes for a batch.  ``None`` uses the CPU count;
        ``0``/``1`` run serially in-process (still deduplicated and
        cached).  A batch never spawns more workers than it has
        distinct uncached specs.
    cache_dir:
        Directory for the JSON result cache, created on demand.
        ``None`` disables on-disk caching.
    validate:
        Run every simulation with invariant checking on (slower).
    default_n_jobs:
        Trace length pinned onto specs that leave ``n_jobs`` unset.
    aggregates_only:
        Reduce every result to headline metrics in the worker
        (:meth:`~repro.scheduling.result.SimulationResult.to_aggregates`)
        before it is returned, cached or streamed.  A cached *full*
        result satisfies an aggregates-only request (it is reduced on
        load); a cached aggregates-only result never satisfies a
        full-result request (it is recomputed).
    on_error:
        What a failing spec does to the batch.  ``"raise"`` (default)
        lands every already-completed result, then re-raises — the
        historical behavior, minus the lost results.  ``"skip"``
        records the failure on :attr:`failures` and leaves ``None`` at
        the spec's positions in the result list.  ``"retry"`` re-runs
        the spec up to ``retries`` more times before treating it like
        ``"skip"``.
    retries:
        Extra attempts per spec under ``on_error="retry"``.
    """

    def __init__(
        self,
        max_workers: int | None = None,
        *,
        cache_dir: str | os.PathLike[str] | None = None,
        validate: bool = False,
        default_n_jobs: int | None = None,
        aggregates_only: bool = False,
        on_error: str = "raise",
        retries: int = 2,
    ) -> None:
        if max_workers is not None and max_workers < 0:
            raise ValueError(f"max_workers must be non-negative, got {max_workers}")
        if on_error not in _ON_ERROR_MODES:
            raise ValueError(
                f"on_error must be one of {_ON_ERROR_MODES}, got {on_error!r}"
            )
        if retries < 0:
            raise ValueError(f"retries must be non-negative, got {retries}")
        self.max_workers = max_workers
        self.cache_dir = Path(cache_dir) if cache_dir is not None else None
        self.validate = validate
        self.default_n_jobs = default_n_jobs
        self.aggregates_only = aggregates_only
        self.on_error = on_error
        self.retries = retries
        self._cache_hits = 0
        self._cache_misses = 0
        self._failures: list[SpecFailure] = []

    # -- cache plumbing ---------------------------------------------------------
    @property
    def cache_hits(self) -> int:
        return self._cache_hits

    @property
    def cache_misses(self) -> int:
        return self._cache_misses

    @property
    def failures(self) -> tuple[SpecFailure, ...]:
        """Per-spec failures of the most recent run, in detection order."""
        return tuple(self._failures)

    def _cache_path(self, spec: RunSpec) -> Path:
        assert self.cache_dir is not None
        return self.cache_dir / f"{spec_key(spec)}.json"

    def cache_load(self, spec: RunSpec) -> SimulationResult | None:
        """Fetch one result from the disk cache; counts a hit or miss."""
        result = self._cache_read(spec)
        if result is None:
            self._cache_misses += 1
        else:
            self._cache_hits += 1
        return result

    def _cache_read(self, spec: RunSpec) -> SimulationResult | None:
        if self.cache_dir is None:
            return None
        # Chaos site: a scripted fault here emulates a dying/stalling
        # read of the result store.  Outside the try below on purpose —
        # an injected ConnectionResetError must not be swallowed by the
        # OSError arm that forgives genuinely missing entries.
        fault_fire("cache.load")
        path = self._cache_path(spec)
        try:
            with open(path, "r", encoding="utf-8") as stream:
                data = json.load(stream)
            if data.get("version") != FORMAT_VERSION:
                return None
            if data.get("spec") != spec_to_dict(spec):
                return None  # hash collision or stale layout: recompute
            result = result_from_dict(data["result"])
        except (OSError, ValueError, KeyError, TypeError):
            return None  # missing or corrupt entries are recomputed
        if self.aggregates_only:
            return result.to_aggregates()  # a full entry still satisfies us
        if result.is_aggregated:
            return None  # reduced entry cannot serve a full-result request
        return result

    def cache_store(self, spec: RunSpec, result: SimulationResult) -> None:
        """Persist one result (no-op without a cache directory)."""
        if self.cache_dir is None:
            return
        payload = {
            "version": FORMAT_VERSION,
            "spec": spec_to_dict(spec),
            "result": result_to_dict(result),
        }
        self._cache_write(spec, json.dumps(payload).encode("utf-8"))

    def cache_store_bytes(self, spec: RunSpec, result_json: bytes) -> None:
        """Persist one result already encoded as a JSON document.

        ``result_json`` (e.g. the serve daemon's canonical result bytes)
        is spliced into the same entry layout :meth:`cache_store`
        writes, so the entry is not decoded and re-encoded here.
        """
        if self.cache_dir is None:
            return
        head = json.dumps({"version": FORMAT_VERSION, "spec": spec_to_dict(spec)})
        data = head[:-1].encode("utf-8") + b', "result": ' + result_json + b"}"
        self._cache_write(spec, data)

    def _cache_write(self, spec: RunSpec, data: bytes) -> None:
        assert self.cache_dir is not None
        self.cache_dir.mkdir(parents=True, exist_ok=True)
        path = self._cache_path(spec)
        # Chaos site: crash/delay/reset rules fire here (before any
        # bytes land); a torn_write rule hands back a truncated payload
        # that must reach the *final* path — emulating a writer that
        # died without the temp-and-rename discipline, the corruption
        # _cache_read's recompute-on-corrupt arm exists to absorb.
        kept, torn = fault_torn_write("cache.store", data)
        if torn:
            with open(path, "wb") as stream:
                stream.write(kept)
            raise InjectedCrash(f"torn cache write for {path.name}")
        # Write-then-rename so concurrent sweeps never read a torn file.
        # The temp name carries a per-process monotonic token on top of
        # the pid: unique per write, even across threads of one process.
        temp = path.with_suffix(f".tmp.{os.getpid()}.{next(_TEMP_TOKENS)}")
        try:
            with open(temp, "wb") as stream:
                stream.write(data)
            os.replace(temp, path)
        except BaseException:
            try:
                os.unlink(temp)
            except OSError:
                pass
            raise

    # -- execution --------------------------------------------------------------
    def run(
        self,
        specs: Sequence[RunSpec],
        *,
        progress: Callable[[RunSpec, SimulationResult], None] | None = None,
        on_failure: Callable[[RunSpec, str], None] | None = None,
    ) -> list[SimulationResult | None]:
        """Run ``specs`` and return results in the same order.

        Identical specs are simulated once.  Results are deterministic:
        serial and parallel execution of the same list are equal.
        ``progress`` (if given) is invoked once per freshly-simulated
        spec as its result lands — completion order, not input order.
        ``on_failure`` is invoked once per terminally-failed spec (only
        possible under ``on_error="skip"``/``"retry"``, where failed
        specs yield ``None`` in the result list and are recorded on
        :attr:`failures`).
        """
        resolved: dict[RunSpec, SimulationResult] = {}
        normalized = self._prepare(specs, resolved)
        pending = [spec for spec in normalized if spec not in resolved]
        seen: set[RunSpec] = set()
        pending = [s for s in pending if not (s in seen or seen.add(s))]

        def land(spec: RunSpec, result: SimulationResult) -> None:
            resolved[spec] = result
            self.cache_store(spec, result)
            if progress is not None:
                progress(spec, result)

        self._execute_pending(pending, land, on_failure)
        return [resolved.get(spec) for spec in normalized]

    def run_streaming(
        self,
        specs: Sequence[RunSpec],
        reduce: Callable[[RunSpec, SimulationResult], None],
        *,
        on_failure: Callable[[RunSpec, str], None] | None = None,
    ) -> BatchReport:
        """Run ``specs``, folding each result into ``reduce`` as it lands.

        The streaming twin of :meth:`run` for sweeps too large to hold
        even an aggregates-only result list: no results are accumulated
        — ``reduce(spec, result)`` is called exactly once per *unique*
        spec (cache hits included, in completion order, not input
        order), and only the reduction the caller builds stays in
        memory.  Returns a :class:`BatchReport` of counts and failures.
        """
        resolved: dict[RunSpec, SimulationResult] = {}
        normalized = self._prepare(specs, resolved)
        for spec, result in resolved.items():
            reduce(spec, result)
        pending: list[RunSpec] = []
        seen: set[RunSpec] = set(resolved)
        for spec in normalized:
            if spec not in seen:
                seen.add(spec)
                pending.append(spec)
        completed = len(resolved)

        def land(spec: RunSpec, result: SimulationResult) -> None:
            nonlocal completed
            completed += 1
            self.cache_store(spec, result)
            reduce(spec, result)

        self._execute_pending(pending, land, on_failure)
        return BatchReport(
            total=len(normalized),
            unique=len(seen),
            completed=completed,
            failures=self.failures,
            cache_hits=self._cache_hits,
            cache_misses=self._cache_misses,
        )

    # -- the executor core ------------------------------------------------------
    def _prepare(
        self,
        specs: Sequence[RunSpec],
        resolved: dict[RunSpec, SimulationResult],
    ) -> list[RunSpec]:
        """Normalise specs, fill ``resolved`` from the cache, reset failures."""
        self._failures = []
        if self.default_n_jobs is not None:
            normalized = [normalize_spec(s, self.default_n_jobs) for s in specs]
        else:
            normalized = [normalize_spec(s) for s in specs]
        for spec in normalized:
            if spec in resolved:
                continue
            cached = self.cache_load(spec)
            if cached is not None:
                resolved[spec] = cached
        return normalized

    def _payload(self, spec: RunSpec) -> tuple[RunSpec, bool, bool]:
        return (spec, self.validate, self.aggregates_only)

    def _fail(
        self,
        spec: RunSpec,
        error: str,
        attempts: int,
        on_failure: Callable[[RunSpec, str], None] | None,
    ) -> None:
        self._failures.append(SpecFailure(spec=spec, error=error, attempts=attempts))
        if on_failure is not None:
            on_failure(spec, error)

    def _execute_pending(
        self,
        pending: list[RunSpec],
        land: Callable[[RunSpec, SimulationResult], None],
        on_failure: Callable[[RunSpec, str], None] | None,
    ) -> None:
        """Run every (unique, uncached) pending spec through ``land``."""
        self._share_workloads(pending)
        try:
            workers = self.max_workers if self.max_workers is not None else os.cpu_count() or 1
            if workers <= 1 or len(pending) <= 1:
                self._run_serial(pending, land, on_failure)
            else:
                self._run_pool(pending, min(workers, len(pending)), land, on_failure)
        finally:
            _WORKLOAD_STORE.clear()

    def _run_serial(
        self,
        pending: list[RunSpec],
        land: Callable[[RunSpec, SimulationResult], None],
        on_failure: Callable[[RunSpec, str], None] | None,
    ) -> None:
        """In-process execution (cannot survive a worker killing the process)."""
        retries = self.retries if self.on_error == "retry" else 0
        for spec in pending:
            attempts = 0
            while True:
                attempts += 1
                try:
                    result = _execute(self._payload(spec))
                except Exception as exc:
                    if self.on_error == "raise":
                        raise
                    if attempts <= retries:
                        continue
                    self._fail(spec, repr(exc), attempts, on_failure)
                    break
                else:
                    land(spec, result)
                    break

    def _spawn_pool(self, workers: int) -> ProcessPoolExecutor:
        context = None
        if "fork" in multiprocessing.get_all_start_methods():
            # Fork shares _WORKLOAD_STORE copy-on-write; other
            # start methods fall back to per-worker resolution.
            context = multiprocessing.get_context("fork")
        return ProcessPoolExecutor(max_workers=workers, mp_context=context)

    def _run_pool(
        self,
        pending: list[RunSpec],
        workers: int,
        land: Callable[[RunSpec, SimulationResult], None],
        on_failure: Callable[[RunSpec, str], None] | None,
    ) -> None:
        """The fault-tolerant pool loop.

        Submission is windowed (at most ``2 * workers`` futures in
        flight) so million-spec sweeps do not materialise a million
        queued work items, and so the suspect set after a worker death
        stays small.  When the pool breaks, every result that completed
        in the same batch is landed first; then, under
        ``"skip"``/``"retry"``, the pool is respawned and the in-flight
        suspects re-run in *isolation* — one future in flight at a time
        — so the next death is attributed with certainty to the spec
        that caused it, and specs that merely shared the pool with the
        crasher are re-run rather than falsely failed.  Isolation
        attempts are not charged against ``retries``.  A pool that
        breaks between ``wait()`` and the next ``submit()`` surfaces
        from ``submit`` itself; that is handled like a broken future,
        with the spec being submitted joining the in-flight suspects.
        """
        retries = self.retries if self.on_error == "retry" else 0
        queue: deque[RunSpec] = deque(pending)
        isolating: deque[RunSpec] = deque()
        attempts: dict[RunSpec, int] = {spec: 0 for spec in pending}
        window = 2 * workers
        pool = self._spawn_pool(workers)
        futures: dict[Future, RunSpec] = {}
        try:
            while queue or isolating or futures:
                broken: BrokenProcessPool | None = None
                try:
                    if isolating:
                        # Isolation mode: exactly one suspect in flight.
                        if not futures:
                            spec = isolating.popleft()
                            futures[pool.submit(_execute, self._payload(spec))] = spec
                    else:
                        while queue and len(futures) < window:
                            spec = queue.popleft()
                            futures[pool.submit(_execute, self._payload(spec))] = spec
                except BrokenProcessPool as exc:
                    # The pool broke after the last wait(): this spec never
                    # reached it, so it is re-run in isolation, unblamed,
                    # along with everything in flight (handled below).
                    if self.on_error == "raise":
                        raise
                    isolating.appendleft(spec)
                    broken = exc
                done, _ = wait(set(futures), return_when=FIRST_COMPLETED)
                # A death is attributable only when its spec was provably
                # alone in the pool (a lone in-flight future).
                alone = len(futures) == 1
                first_error: BaseException | None = None
                for future in done:
                    spec = futures.pop(future)
                    try:
                        result = future.result()
                    except BrokenProcessPool as exc:
                        broken = exc
                        if alone:
                            attempts[spec] += 1
                            if attempts[spec] <= retries:
                                isolating.append(spec)
                            else:
                                self._fail(spec, repr(exc), attempts[spec], on_failure)
                        else:
                            isolating.append(spec)
                    except Exception as exc:
                        # A real worker exception: attributed directly.
                        attempts[spec] += 1
                        if self.on_error == "raise":
                            first_error = first_error or exc
                        elif attempts[spec] <= retries:
                            queue.append(spec)
                        else:
                            self._fail(spec, repr(exc), attempts[spec], on_failure)
                    else:
                        # Completed results always land, even when a
                        # sibling in the same batch failed or the pool
                        # broke: nothing finished is ever discarded.
                        land(spec, result)
                if first_error is not None:
                    raise first_error
                if broken is not None:
                    if self.on_error == "raise":
                        raise broken
                    # Everything still in flight died with the pool;
                    # queue it for isolated, attributable re-runs.
                    isolating.extend(futures.values())
                    futures.clear()
                    pool.shutdown(wait=False)
                    pool = self._spawn_pool(workers)
        finally:
            pool.shutdown(wait=False)

    @staticmethod
    def _share_workloads(pending: Sequence[RunSpec]) -> None:
        """Materialise each distinct workload once, before the pool forks."""
        _WORKLOAD_STORE.clear()
        for spec in pending:
            key = _workload_key(spec)
            if key in _WORKLOAD_STORE:
                continue
            source = WORKLOAD_SOURCES.get(spec.source)
            _WORKLOAD_STORE[key] = source(spec.workload, spec.n_jobs, spec.seed)
