"""Span tracing from the benchmark's side of each layer boundary.

A :class:`Tracer` records one span per call into a layer -- name, start,
end, parent span, and the id of the request it serves -- keeps the
spans in memory and writes them out once, at the end of the run.  A
layer's self time is its spans' duration minus the part of it their
child spans cover.

No file under ``src/repro`` is edited or opens a span.  To reach the calls
the program makes on its own (the trace materialised inside
``Simulation.run``, the lane a batch worker runs, the cache codec inside
``BatchRunner``), :func:`instrumented` installs wrappers on the public
dispatch points -- the ``WORKLOAD_SOURCES`` and ``ENGINES`` registry
entries and the codec functions ``repro.batch`` calls -- and removes
them afterwards.  Batch workers are forked after the wrappers are in
place, so their spans are appended to a spill file per worker and read
back by the parent once the batch returns.
"""

from __future__ import annotations

import itertools
import json
import os
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Iterator

import repro.batch
from repro.registry import ENGINES, WORKLOAD_SOURCES

#: Per-layer time metrics and the span whose self time each one sums.
SPAN_METRICS = {
    "workloads.materialise_s": "workloads.materialise",
    "sim.columnar.core_s": "sim.columnar.core",
    "sim.reference.core_s": "sim.reference.core",
    "serialize.encode_s": "serialize.encode",
    "serialize.json_s": "serialize.json",
    "serialize.decode_s": "serialize.decode",
    "batch.cache_load_s": "batch.cache_load",
    "batch.cache_store_s": "batch.cache_store",
    "serve.submit_s": "serve.submit",
    "serve.fetch_s": "serve.fetch",
}

_CORE_SPANS = ("sim.columnar.core", "sim.reference.core")


class _NullSpan:
    def __enter__(self) -> dict[str, Any]:
        return {}

    def __exit__(self, *exc_info: object) -> None:
        return None


class NullTracer:
    """The untraced path: every span is a no-op."""

    enabled = False

    def span(self, name: str, request: int | None = None) -> _NullSpan:
        return _NullSpan()

    def expect_forks(self, spill_dir: Path, parent: dict[str, Any]) -> None:
        return None

    def collect_spill(self) -> None:
        return None


class Tracer:
    """In-memory span recorder; thread-safe, fork-aware."""

    enabled = True

    def __init__(self) -> None:
        self.pid = os.getpid()
        self.spans: list[dict[str, Any]] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        # Where forked batch workers append their spans, and the span
        # and request they count as children of.
        self.spill_dir: Path | None = None
        self.fork_parent: str | None = None
        self.fork_request: int | None = None

    @contextmanager
    def span(self, name: str, request: int | None = None) -> Iterator[dict[str, Any]]:
        pid = os.getpid()
        stack = self._local.__dict__.setdefault(pid, [])
        if stack:
            parent, inherited = stack[-1]["id"], stack[-1]["request"]
        elif pid != self.pid:
            parent, inherited = self.fork_parent, self.fork_request
        else:
            parent, inherited = None, None
        record: dict[str, Any] = {
            "id": f"{pid}.{next(self._ids)}",
            "name": name,
            "parent": parent,
            "request": inherited if request is None else request,
            "pid": pid,
            "start": time.perf_counter(),
        }
        stack.append(record)
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            stack.pop()
            if pid == self.pid:
                self.spans.append(record)
            elif self.spill_dir is not None:
                with open(self.spill_dir / f"spans-{pid}.jsonl", "a", encoding="utf-8") as out:
                    out.write(json.dumps(record) + "\n")

    def expect_forks(self, spill_dir: Path, parent: dict[str, Any]) -> None:
        """Spans of processes forked from here on are children of ``parent``
        and are appended to files in ``spill_dir``."""
        self.spill_dir = spill_dir
        self.fork_parent, self.fork_request = parent["id"], parent["request"]

    def collect_spill(self) -> None:
        """Adopt the spans forked workers appended, then drop the files."""
        if self.spill_dir is None:
            return
        for path in sorted(self.spill_dir.glob("spans-*.jsonl")):
            with open(path, encoding="utf-8") as stream:
                self.spans.extend(json.loads(line) for line in stream if line.strip())
            path.unlink()


class _TracedLane:
    """An ``ENGINES`` entry that times ``run`` as ``sim.<lane>.core``."""

    def __init__(self, lane: Any, tracer: Tracer) -> None:
        self._lane = lane
        self._tracer = tracer

    def __getattr__(self, attr: str) -> Any:
        return getattr(self._lane, attr)

    def run(self, simulation: Any) -> Any:
        with self._tracer.span(f"sim.{self._lane.name}.core") as record:
            result = self._lane.run(simulation)
            record["events"] = result.events_processed
            record["jobs"] = len(result.outcomes)
        return result


def _traced_source(source: Any, tracer: Tracer) -> Any:
    def materialise(workload: str, n_jobs: int, seed: int | None) -> Any:
        with tracer.span("workloads.materialise") as record:
            bundle = source(workload, n_jobs, seed)
            record["jobs"] = len(bundle.jobs)
        return bundle

    return materialise


def _traced_call(function: Any, name: str, tracer: Tracer) -> Any:
    def call(*args: Any, **kwargs: Any) -> Any:
        with tracer.span(name):
            return function(*args, **kwargs)

    return call


@contextmanager
def instrumented(tracer: Tracer | NullTracer, runner: Any = None) -> Iterator[None]:
    """Wrap the layer entry points for the duration of one operation.

    ``runner`` (a ``BatchRunner``) also gets its ``cache_load`` and
    ``cache_store`` methods timed.  A :class:`NullTracer` installs
    nothing.
    """
    if not tracer.enabled:
        yield
        return
    sources = {name: WORKLOAD_SOURCES.get(name) for name in WORKLOAD_SOURCES.names()}
    lanes = {name: ENGINES.get(name) for name in ENGINES.names()}
    codec = {
        "result_to_dict": (repro.batch.result_to_dict, "serialize.encode"),
        "result_from_dict": (repro.batch.result_from_dict, "serialize.decode"),
    }
    for name, source in sources.items():
        WORKLOAD_SOURCES.add(name, _traced_source(source, tracer), overwrite=True)
    for name, lane in lanes.items():
        ENGINES.add(name, _TracedLane(lane, tracer), overwrite=True)
    for attr, (function, span) in codec.items():
        setattr(repro.batch, attr, _traced_call(function, span, tracer))
    if runner is not None:
        runner.cache_load = _traced_call(runner.cache_load, "batch.cache_load", tracer)
        runner.cache_store = _traced_call(runner.cache_store, "batch.cache_store", tracer)
    try:
        yield
    finally:
        for name, source in sources.items():
            WORKLOAD_SOURCES.add(name, source, overwrite=True)
        for name, lane in lanes.items():
            ENGINES.add(name, lane, overwrite=True)
        for attr, (function, _span) in codec.items():
            setattr(repro.batch, attr, function)
        if runner is not None:
            del runner.cache_load, runner.cache_store


# -- analysis -------------------------------------------------------------------
def _covered(intervals: list[tuple[float, float]], start: float, end: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[start, end]``."""
    total = 0.0
    reach = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def self_times(spans: list[dict[str, Any]]) -> dict[str, float]:
    """Span id -> duration minus the time its children cover."""
    children: dict[str, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span["parent"] is not None:
            children[span["parent"]].append((span["start"], span["end"]))
    return {
        span["id"]: (span["end"] - span["start"])
        - _covered(children[span["id"]], span["start"], span["end"])
        for span in spans
    }


def _has_ancestor(span: dict[str, Any], name: str, by_id: dict[str, dict[str, Any]]) -> bool:
    parent = by_id.get(span["parent"])
    while parent is not None:
        if parent["name"] == name:
            return True
        parent = by_id.get(parent["parent"])
    return False


def layer_metrics(spans: list[dict[str, Any]], operations: int, pid: int) -> dict[str, float]:
    """Per-operation layer metrics from the spans of ``operations`` ops.

    ``pid`` is the process that ran the workload; core spans from any
    other process are batch-worker time.
    """
    ops = max(operations, 1)
    own = self_times(spans)
    by_id = {span["id"]: span for span in spans}
    totals: dict[str, float] = defaultdict(float)
    for span in spans:
        totals[span["name"]] += own[span["id"]]
    metrics = {metric: totals[name] / ops for metric, name in SPAN_METRICS.items()}
    materialise = [s for s in spans if s["name"] == "workloads.materialise"]
    cores = [s for s in spans if s["name"] in _CORE_SPANS]
    core_self = sum(own[s["id"]] for s in cores)
    core_jobs = sum(s["jobs"] for s in cores)
    metrics.update(
        {
            "workloads.jobs": sum(s["jobs"] for s in materialise) / ops,
            "sim.events": sum(s["events"] for s in cores) / ops,
            "sim.core_jobs_per_s": core_jobs / core_self if core_self > 0 else 0.0,
            "batch.parent_materialise_s": sum(
                own[s["id"]]
                for s in materialise
                if s["pid"] == pid and _has_ancestor(s, "batch.run", by_id)
            )
            / ops,
            "batch.worker_busy_s": sum(
                s["end"] - s["start"] for s in cores if s["pid"] != pid
            )
            / ops,
        }
    )
    return metrics
