#!/usr/bin/env python3
"""The benchmark's one command: run one workload, check it, print the metrics.

    python3 perfbench/run.py --workload inproc-deep --seed 1 --seconds 15 --trace 0

Run it from the root of a checkout; the package under test is loaded
from ``src/``.  The work runs in fresh child processes (``child.py``),
so peak memory is never a process-wide mark.  Every result is checked
byte for byte against recorded sha256 digests (``oracle.py``).

The last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: every end-to-end metric named in
``BENCHMARK.json`` with ``--trace 0``, every per-layer metric with
``--trace 1``.  The line before it is the full record (also written to
``out/``): environment stamp, sample counts, latencies, tail
percentile, error rate and the metrics.  ``--jobs-cap N`` shrinks every
trace to at most N jobs (the smoke test uses it).
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Any

import oracle

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DEFAULT_SEED = 1


def child_argv(mode: str, args: argparse.Namespace, *extra: str) -> list[str]:
    argv = [sys.executable, str(HERE / "child.py"), mode, "--seed", str(args.seed)]
    if args.jobs_cap is not None:
        argv += ["--jobs-cap", str(args.jobs_cap)]
    return argv + list(extra)


def child_env() -> dict[str, str]:
    """The package from this checkout, no inherited lane or cache overrides."""
    env = {key: value for key, value in os.environ.items() if not key.startswith("REPRO_")}
    env["PYTHONPATH"] = str(ROOT / "src")
    env["TMPDIR"] = str(oracle.TMP)
    return env


def run_child(argv: list[str], timeout: float) -> float:
    """Run a child to completion; returns seconds from its start to "ready"."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        argv, stdout=subprocess.PIPE, stdin=subprocess.DEVNULL, text=True,
        env=child_env(), cwd=ROOT,
    )  # fmt: skip
    killer = threading.Timer(timeout, proc.kill)
    killer.start()
    try:
        assert proc.stdout is not None
        line = proc.stdout.readline()
        ready = time.perf_counter() - start
        proc.stdout.read()
        code = proc.wait()
    finally:
        killer.cancel()
    if code != 0:
        raise RuntimeError(f"child exited with {code}: {' '.join(argv)}")
    if argv[2] == "run" and line.strip() != "ready":
        raise RuntimeError(f"child never reported ready: {' '.join(argv)}")
    return ready


def run_workload(args: argparse.Namespace, name: str) -> dict[str, Any]:
    """Run children until the timed window is full; returns their merged record.

    An inproc-deep or sweep-cached child does one operation, so no
    operation runs on a heap an earlier one left behind, and its set-up
    is timed from process start.  A serve-loopback child covers the
    whole window and times its own daemon starts.  A traced run goes on
    until it holds both a traced and an untraced operation.
    """
    children: list[dict[str, Any]] = []
    window = 0.0
    kinds: set[bool] = set()
    while window < args.seconds or (args.trace and len(kinds) < 2):
        path = oracle.TMP / f"{name}-{len(children)}.json"
        ready = run_child(
            child_argv(
                "run", args, "--workload", args.workload, "--seconds", str(args.seconds),
                "--trace", str(args.trace), "--index", str(len(children)),
                "--record", str(path),
            ),  # fmt: skip
            timeout=args.seconds + 120,
        )
        with open(path, encoding="utf-8") as stream:
            child = json.load(stream)
        if args.workload != "serve-loopback":
            child["setup"].append(ready)
        children.append(child)
        window += child["window_s"]
        kinds.update(op["traced"] for op in child["ops"])
    traced_layers = [child["layers"] for child in children if child["layers"]]
    return {
        "setup": [s for child in children for s in child["setup"]],
        "ops": [op for child in children for op in child["ops"]],
        "outputs": [out for child in children for out in child["outputs"]],
        "errors": [err for child in children for err in child["errors"]],
        "specs": {k: v for child in children for k, v in child["specs"].items()},
        "window_s": window,
        "peak_rss_mib": max(child["peak_rss_mib"] for child in children),
        "layers": {
            metric: statistics.fmean(layers[metric] for layers in traced_layers)
            for metric in (traced_layers[0] if traced_layers else {})
        },
        "spans": [span for child in children for span in child["spans"]],
        "env": children[0]["env"],
    }


def check_outputs(record: dict[str, Any], args: argparse.Namespace) -> int:
    """Byte mismatches among the run's outputs (digests computed if new)."""
    missing = [doc for key, doc in record["specs"].items() if oracle.expected(key) is None]
    if missing:
        pending = oracle.TMP / f"digest-{args.workload}-seed{args.seed}.json"
        pending.write_text(json.dumps(missing), encoding="utf-8")
        run_child(child_argv("digest", args, "--specs", str(pending)), timeout=150)
        pending.unlink()
    return sum(1 for key, digest in record["outputs"] if oracle.expected(key) != digest)


def tail(values: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten samples beyond it (else the max)."""
    ordered = sorted(values)
    if len(ordered) > 10:
        return ordered[-11], 100.0 * (len(ordered) - 10) / len(ordered)
    return ordered[-1], 100.0


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as cpuinfo:
            for line in cpuinfo:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(record: dict[str, Any]) -> dict[str, Any]:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "mp_start_method": multiprocessing.get_start_method(),
        **record["env"],
    }


def main() -> int:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as stream:
        benchmark = json.load(stream)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    workloads = [workload["name"] for workload in benchmark["workloads"]]
    parser.add_argument("--workload", required=True, choices=workloads)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=benchmark["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--jobs-cap", type=int, default=None)
    args = parser.parse_args()
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no package under {ROOT / 'src'}; run from a checkout", file=sys.stderr)
        return 2
    # Scratch space of earlier runs (fresh caches, spill files) is never reused.
    shutil.rmtree(oracle.TMP, ignore_errors=True)
    oracle.TMP.mkdir(parents=True)
    name = f"{args.workload}-seed{args.seed}-cap{args.jobs_cap or 'none'}-trace{args.trace}"
    try:
        if args.workload == "sweep-cached":
            run_child(child_argv("prepare", args), timeout=150)
        record = run_workload(args, name)
        mismatches = check_outputs(record, args)
    except (OSError, RuntimeError, subprocess.SubprocessError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    setup = record["setup"]
    ops = record["ops"]
    untraced = [op["latency"] for op in ops if not op["traced"]]
    traced = [op["latency"] for op in ops if op["traced"]]
    tail_s, tail_pct = tail(untraced)
    attempted = len(record["outputs"]) + len(record["errors"])
    failed = mismatches + len(record["errors"])
    end_to_end = {
        "setup_s": statistics.median(setup),
        "request_p50_s": statistics.median(untraced),
        "request_tail_s": tail_s,
        "jobs_per_s": sum(op["jobs"] for op in ops) / record["window_s"],
        "peak_rss_mib": record["peak_rss_mib"],
    }
    # A layer the workload never calls into reads 0 (e.g. serve.* in process).
    per_layer = {metric["name"]: 0.0 for metric in benchmark["per_layer"]}
    per_layer.update(record["layers"])
    if traced:
        per_layer["trace.overhead_s"] = statistics.median(traced) - statistics.median(untraced)
    full = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "jobs_cap": args.jobs_cap,
        "environment": environment(record),
        "samples": {"requests": len(untraced), "traced_requests": len(traced), "setup": len(setup)},
        "request_tail_percentile": tail_pct,
        "latencies_s": untraced,
        "error_rate": failed / attempted if attempted else 1.0,
        "errors": record["errors"][:5],
        "mismatches": mismatches,
        "end_to_end": end_to_end,
    }
    if args.workload == "sweep-cached":
        full["sweep_s"] = end_to_end["request_p50_s"]
    if args.trace:
        spans_file = oracle.OUT / f"{name}.spans.json"
        with open(spans_file, "w", encoding="utf-8") as out:
            json.dump({"spans": sorted(record["spans"], key=lambda s: s["start"])}, out)
        full["per_layer"] = per_layer
        full["spans_file"] = str(spans_file.relative_to(ROOT))
    with open(oracle.OUT / f"{name}.json", "w", encoding="utf-8") as out:
        json.dump(full, out, indent=1)
    chosen = benchmark["per_layer"] if args.trace else benchmark["end_to_end"]
    values = per_layer if args.trace else end_to_end
    print(json.dumps(full))
    print(
        json.dumps(
            {
                "correct": failed == 0 and attempted > 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in chosen
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
