"""Capture simulation-core throughput into a committed benchmark record.

Usage::

    python scripts/capture_benchmark.py                      # full capture
    python scripts/capture_benchmark.py --scales 1000,5000   # quicker CI run
    python scripts/capture_benchmark.py --output BENCH_5.json

Measures jobs/second of the scheduler hot path through the
:class:`repro.api.Simulation` facade for every (workload, scale,
policy) combination — the calibrated paper traces at ``--scales`` plus
the ``synthetic-xl`` scale-out traces at ``--xl-scales`` (the
million-job regime) — and end-to-end :class:`repro.batch.BatchRunner`
throughput over the standard grid.  Each cell also records its peak
simulation memory: ``tracemalloc`` distorts timing, so the peak is
taken from one *extra* untimed run, and the process-wide ``ru_maxrss``
high-water mark is snapshotted per cell (monotonic across the
capture).  Trace generation happens outside the timed region and is
memoised on disk when ``REPRO_WORKLOAD_CACHE_DIR`` is set; each serial
cell reports the best of ``--repeat`` runs, timed in interleaved
rounds across cells so one host-load phase cannot bias a single cell
(see :class:`SerialCell`).

The committed ``BENCH_5.json`` at the repository root is the perf
trajectory record for this PR; regenerate it on comparable hardware
before claiming a speedup or a regression.  ``--floor`` exits non-zero
if any serial cell falls below the given jobs/s (the CI large-scale
job prints the floor check into its summary).

The batch-RSS rows compare the parent-process peak RSS of a sweep
collecting *full* results against the same sweep in *aggregates-only*
mode.  ``ru_maxrss`` is a monotonic process-wide high-water mark, so
the two modes cannot share a process: each runs in its own child
interpreter (the hidden ``--_rss-probe`` mode) and reports its peak
back as JSON.  ``--rss-ratio-min`` turns the full/aggregates ratio
into a pass/fail check.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import resource
import sys
import time
import tracemalloc
from datetime import datetime, timezone

from repro.api import Simulation
from repro.batch import BatchRunner
from repro.cluster.power import SleepPolicy
from repro.experiments.config import PolicySpec, RunSpec

POLICIES: tuple[tuple[str, PolicySpec], ...] = (
    ("nodvfs", PolicySpec.baseline()),
    ("dvfs(2,NO)", PolicySpec.power_aware(2.0, None)),
)

#: The in-engine node-sleep cell configuration (default preset).
SLEEP_POLICY = SleepPolicy()


def max_rss_mb() -> float:
    """Process high-water RSS in MiB.

    Prefers ``VmHWM`` from ``/proc/self/status`` over ``ru_maxrss``:
    Linux carries ``ru_maxrss`` across ``execve`` (it lives outside the
    replaced address space), so a child spawned from a large parent —
    exactly what the batch-RSS probe children are — would report the
    parent's peak instead of its own.  ``VmHWM`` is reset at exec.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class SerialCell:
    """One (workload, scale, policy, engine) measurement, repeated best-of.

    Cells are timed in *interleaved rounds* — round 1 of every cell,
    then round 2, and so on — so each cell's best-of window spans the
    whole capture instead of one contiguous slice of wall time.  On
    shared/virtualised hardware that makes the per-cell best far less
    hostage to which host-load phase its slot happened to land in.
    One extra untimed run under ``tracemalloc`` records the peak
    Python-heap footprint of the simulation structures, per cell — so
    per *lane*: the columnar core's array-backed result store shows up
    here as a much smaller peak than the reference's per-job
    dataclasses at the same scale.

    Execution goes through the named engine lane
    (:meth:`repro.api.Simulation.run`), so each lane's row measures the
    code path users of that lane actually get; trace materialisation
    stays outside the timed region.
    """

    def __init__(self, workload: str, n_jobs: int, label: str, policy: PolicySpec,
                 repeat: int, source: str = "synthetic",
                 sleep: SleepPolicy | None = None, engine: str = "reference") -> None:
        self.workload = workload
        self.n_jobs = n_jobs
        self.label = label
        self.repeat = repeat
        self.source = source
        self.engine = engine
        self.best = float("inf")
        spec = RunSpec(workload=workload, n_jobs=n_jobs, policy=policy, source=source,
                       sleep=sleep, engine=engine)
        self.simulation = Simulation(spec)
        load_start = time.perf_counter()
        self.jobs = self.simulation.jobs  # materialise outside the timed region
        self.load_seconds = time.perf_counter() - load_start

    def run_once(self) -> None:
        simulation = self.simulation
        start = time.perf_counter()
        simulation.run()
        self.best = min(self.best, time.perf_counter() - start)

    def finish(self) -> dict:
        tracemalloc.start()
        self.simulation.run()
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        return {
            "workload": self.workload,
            "source": self.source,
            "n_jobs": self.n_jobs,
            "policy": self.label,
            "engine": self.engine,
            "mode": "serial",
            "seconds": round(self.best, 4),
            "jobs_per_sec": round(self.n_jobs / self.best, 1),
            "load_seconds": round(self.load_seconds, 4),
            "peak_mem_mb": round(peak / (1024 * 1024), 1),
            "max_rss_mb": round(max_rss_mb(), 1),
        }


def measure_serial_cells(cells: list[SerialCell]) -> list[dict]:
    """Time every cell in interleaved rounds, then take the memory pass."""
    rounds = max((cell.repeat for cell in cells), default=0)
    for round_index in range(rounds):
        for cell in cells:
            if round_index < cell.repeat:
                cell.run_once()
    results = []
    for cell in cells:
        result = cell.finish()
        results.append(result)
        print_cell(result)
    return results


def measure_batch(workloads: list[str], scales: list[int], workers: int) -> dict:
    """End-to-end BatchRunner wall time over the whole grid (no cache)."""
    specs = [
        RunSpec(workload=workload, n_jobs=n_jobs, policy=policy)
        for workload in workloads
        for n_jobs in scales
        for _, policy in POLICIES
    ]
    total_jobs = sum(spec.n_jobs for spec in specs)
    runner = BatchRunner(max_workers=workers)
    start = time.perf_counter()
    runner.run(specs)
    elapsed = time.perf_counter() - start
    return {
        "mode": "batch-serial" if workers <= 1 else "batch-parallel",
        "workers": workers,
        "runs": len(specs),
        "total_jobs": total_jobs,
        "seconds": round(elapsed, 4),
        "jobs_per_sec": round(total_jobs / elapsed, 1),
        "max_rss_mb": round(max_rss_mb(), 1),
    }


def _rss_probe_specs(workload: str, n_jobs: int) -> list[RunSpec]:
    """Six policy variants over ONE trace (same workload/n_jobs/seed).

    Varying only the policy keeps the parent's trace materialisation —
    identical in both probe modes — down to a single workload, so the
    full/aggregates RSS ratio reflects result retention, not trace count.
    """
    return [
        RunSpec(workload=workload, n_jobs=n_jobs,
                policy=PolicySpec.power_aware(bsld, wq))
        for bsld in (1.5, 2.0, 3.0)
        for wq in (0, None)
    ]


def run_rss_probe(mode: str, workload: str, n_jobs: int, workers: int) -> int:
    """Child-process half of the batch-RSS measurement; prints JSON."""
    specs = _rss_probe_specs(workload, n_jobs)
    runner = BatchRunner(max_workers=workers, aggregates_only=(mode == "aggregates"))
    start = time.perf_counter()
    results = runner.run(specs)
    elapsed = time.perf_counter() - start
    assert all(result is not None for result in results)
    print(json.dumps({
        "mode": mode,
        "runs": len(results),
        "seconds": round(elapsed, 4),
        "max_rss_mb": round(max_rss_mb(), 1),
    }))
    return 0


def measure_batch_rss(workload: str, n_jobs: int, workers: int) -> list[dict]:
    """Peak parent RSS of full vs aggregates-only sweeps, isolated per mode."""
    import subprocess

    rows = []
    for mode in ("full", "aggregates"):
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--_rss-probe", mode,
             "--rss-workload", workload, "--rss-scale", str(n_jobs),
             "--parallel", str(workers)],
            capture_output=True, text=True, check=True,
        )
        row = json.loads(proc.stdout.strip().splitlines()[-1])
        row.update({"workload": workload, "n_jobs": n_jobs, "workers": workers})
        rows.append(row)
        print(f"{'batch-rss/' + mode:>25} ({workload}x{n_jobs}, {row['runs']} runs) "
              f"{row['seconds']:>8.3f}s  peak RSS {row['max_rss_mb']:>8.1f} MiB")
    return rows


def print_cell(cell: dict) -> None:
    print(f"{cell['workload']:>12} x {cell['n_jobs']:>7} {cell['policy']:<12} "
          f"[{cell['source']}/{cell['engine']}] {cell['seconds']:>8.3f}s  "
          f"{cell['jobs_per_sec']:>10.0f} jobs/s  "
          f"peak {cell['peak_mem_mb']:>7.1f} MiB")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default="SDSC,CTC",
                        help="comma-separated workload names (default: SDSC,CTC)")
    parser.add_argument("--scales", default="5000,50000,200000",
                        help="calibrated-trace lengths (default: 5000,50000,200000)")
    parser.add_argument("--xl-workloads", default="SDSC",
                        help="scale-out workload names (default: SDSC)")
    parser.add_argument("--xl-scales", default="5000,1000000",
                        help="synthetic-xl trace lengths (default: 5000,1000000; "
                             "empty string skips the scale-out rows)")
    parser.add_argument("--xl-repeat", type=int, default=1,
                        help="timing repeats for scale-out cells (default: 1)")
    parser.add_argument("--repeat", type=int, default=3,
                        help="serial timing repeats, best-of (default: 3)")
    parser.add_argument("--engines", default="reference,columnar",
                        help="engine lanes to measure per serial cell "
                             "(default: reference,columnar; columnar is skipped "
                             "with a notice when numpy is not installed)")
    parser.add_argument("--columnar-floor", type=float, default=None, metavar="JOBS_PER_SEC",
                        help="fail (exit 1) if the fastest columnar-lane serial "
                             "cell is below this jobs/s")
    parser.add_argument("--parallel", type=int, default=min(4, os.cpu_count() or 1),
                        help="worker processes for the parallel batch cell")
    parser.add_argument("--batch-scales", default="5000,50000",
                        help="trace lengths for the batch cells (default: 5000,50000)")
    parser.add_argument("--skip-batch", action="store_true",
                        help="measure only the serial cells")
    parser.add_argument("--floor", type=float, default=None,
                        help="fail (exit 1) if any serial cell is below this jobs/s")
    parser.add_argument("--sleep-workload", default="SDSC",
                        help="workload for the in-engine node-sleep cell "
                             "(default: SDSC; empty string skips it)")
    parser.add_argument("--sleep-scale", type=int, default=50000,
                        help="trace length for the node-sleep cell (default: 50000)")
    parser.add_argument("--sleep-overhead-max", type=float, default=None, metavar="PCT",
                        help="fail (exit 1) if the sleep subsystem costs more than "
                             "PCT%% throughput: the sleep-enabled cell is compared "
                             "against its sleep-disabled twin (with sleep disabled "
                             "the subsystem is bypassed entirely, so the disabled "
                             "twin doubles as the no-subsystem reference)")
    parser.add_argument("--rss-workload", default="SDSC",
                        help="workload for the batch-RSS probe (default: SDSC; "
                             "empty string skips it)")
    parser.add_argument("--rss-scale", type=int, default=200000,
                        help="trace length for the batch-RSS probe (default: 200000)")
    parser.add_argument("--rss-ratio-min", type=float, default=None, metavar="X",
                        help="fail (exit 1) if aggregates-only mode cuts batch "
                             "peak RSS by less than X times")
    parser.add_argument("--_rss-probe", choices=("full", "aggregates"), default=None,
                        help=argparse.SUPPRESS)  # internal child mode
    parser.add_argument("--output", default="BENCH_5.json",
                        help="output path (default: BENCH_5.json)")
    args = parser.parse_args(argv)

    if getattr(args, "_rss_probe") is not None:
        return run_rss_probe(getattr(args, "_rss_probe"), args.rss_workload,
                             args.rss_scale, args.parallel)

    workloads = [w.strip() for w in args.workloads.split(",") if w.strip()]
    scales = [int(s) for s in args.scales.split(",") if s.strip()]
    xl_workloads = [w.strip() for w in args.xl_workloads.split(",") if w.strip()]
    xl_scales = [int(s) for s in args.xl_scales.split(",") if s.strip()]

    engines = [e.strip() for e in args.engines.split(",") if e.strip()]
    if "columnar" in engines and importlib.util.find_spec("numpy") is None:
        # Without numpy the columnar lane runs the reference core, so its
        # rows would only repeat the reference ones under another name.
        print("skipping engine 'columnar': numpy is not installed")
        engines.remove("columnar")
    if not engines:
        print("no requested engine lane is available here", file=sys.stderr)
        return 1

    cells = [
        SerialCell(workload, n_jobs, label, policy, args.repeat, engine=engine)
        for workload in workloads
        for n_jobs in scales
        for label, policy in POLICIES
        for engine in engines
    ] + [
        SerialCell(workload, n_jobs, label, policy, args.xl_repeat,
                   source="synthetic-xl", engine=engine)
        for workload in xl_workloads
        for n_jobs in xl_scales
        for label, policy in POLICIES
        for engine in engines
    ]
    sleep_pair: tuple[SerialCell, SerialCell] | None = None
    if args.sleep_workload:
        # The in-engine node-sleep cell, paired with a sleep-disabled
        # twin measured in the same interleaved rounds so the overhead
        # verdict compares like with like.
        # The twin gets its own label: it may coincide with a regular
        # scales cell, and duplicate (workload, n_jobs, policy) keys in
        # the record would be ambiguous for trend tooling.
        dvfs_label, dvfs_policy = POLICIES[1]
        disabled = SerialCell(args.sleep_workload, args.sleep_scale,
                              dvfs_label + " [sleep-ref]", dvfs_policy, args.repeat)
        enabled = SerialCell(args.sleep_workload, args.sleep_scale,
                             dvfs_label + "+sleep", dvfs_policy, args.repeat,
                             sleep=SLEEP_POLICY)
        sleep_pair = (disabled, enabled)
        cells += [disabled, enabled]
    serial = measure_serial_cells(cells)

    batch = []
    if not args.skip_batch:
        batch_scales = [int(s) for s in args.batch_scales.split(",") if s.strip()]
        for workers in (1, args.parallel):
            cell = measure_batch(workloads, batch_scales, workers)
            batch.append(cell)
            print(f"{cell['mode']:>25} ({cell['workers']} workers) "
                  f"{cell['seconds']:>8.3f}s  {cell['jobs_per_sec']:>10.0f} jobs/s")
            if args.parallel <= 1:
                break

    batch_rss: list[dict] = []
    rss_ratio = None
    if args.rss_workload:
        batch_rss = measure_batch_rss(args.rss_workload, args.rss_scale, args.parallel)
        full_row, agg_row = batch_rss
        rss_ratio = round(full_row["max_rss_mb"] / agg_row["max_rss_mb"], 2)
        print(f"aggregates-only batch peak RSS: {agg_row['max_rss_mb']:.0f} MiB vs "
              f"{full_row['max_rss_mb']:.0f} MiB full ({rss_ratio:.1f}x smaller)")

    sleep_overhead_pct = None
    if sleep_pair is not None:
        disabled, enabled = sleep_pair
        sleep_overhead_pct = round(100.0 * (1.0 - disabled.best / enabled.best), 2)
        print(f"node-sleep subsystem overhead ({disabled.workload}x{disabled.n_jobs}): "
              f"{sleep_overhead_pct:+.1f}% vs the sleep-disabled twin")

    record = {
        "schema": "repro-bench/5",
        "captured_at": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "environment": {
            "python": sys.version.split()[0],
            "platform": platform.platform(),
            "cpu_count": os.cpu_count(),
        },
        "settings": {
            "workloads": workloads,
            "scales": scales,
            "xl_workloads": xl_workloads,
            "xl_scales": xl_scales,
            "repeat": args.repeat,
            "xl_repeat": args.xl_repeat,
            "policies": [label for label, _ in POLICIES],
            "engines": engines,
        },
        "serial": serial,
        "batch": batch,
        "batch_rss": batch_rss,
        "batch_rss_ratio": rss_ratio,
        "sleep_overhead_pct": sleep_overhead_pct,
    }
    with open(args.output, "w", encoding="utf-8") as stream:
        json.dump(record, stream, indent=2, sort_keys=False)
        stream.write("\n")
    print(f"wrote {args.output}")

    failed = False
    if args.floor is not None:
        slowest = min(serial, key=lambda cell: cell["jobs_per_sec"])
        verdict = "PASS" if slowest["jobs_per_sec"] >= args.floor else "FAIL"
        print(f"floor check [{verdict}]: slowest serial cell "
              f"{slowest['workload']}x{slowest['n_jobs']} {slowest['policy']} at "
              f"{slowest['jobs_per_sec']:.0f} jobs/s (floor {args.floor:.0f})")
        failed |= verdict == "FAIL"
    if args.columnar_floor is not None:
        columnar_rows = [cell for cell in serial if cell["engine"] == "columnar"]
        if not columnar_rows:
            print("columnar floor check [FAIL]: no columnar-lane cell was measured")
            failed = True
        else:
            fastest = max(columnar_rows, key=lambda cell: cell["jobs_per_sec"])
            verdict = "PASS" if fastest["jobs_per_sec"] >= args.columnar_floor else "FAIL"
            print(f"columnar floor check [{verdict}]: fastest columnar cell "
                  f"{fastest['workload']}x{fastest['n_jobs']} {fastest['policy']} at "
                  f"{fastest['jobs_per_sec']:.0f} jobs/s "
                  f"(floor {args.columnar_floor:.0f})")
            failed |= verdict == "FAIL"
    if args.rss_ratio_min is not None:
        if rss_ratio is None:
            print("batch RSS check [FAIL]: no batch-RSS probe was run")
            failed = True
        else:
            verdict = "PASS" if rss_ratio >= args.rss_ratio_min else "FAIL"
            print(f"batch RSS check [{verdict}]: aggregates-only is {rss_ratio:.1f}x "
                  f"smaller (min {args.rss_ratio_min:.1f}x)")
            failed |= verdict == "FAIL"
    if args.sleep_overhead_max is not None:
        if sleep_overhead_pct is None:
            print("sleep overhead check [FAIL]: no node-sleep cell was measured")
            failed = True
        else:
            verdict = "PASS" if sleep_overhead_pct <= args.sleep_overhead_max else "FAIL"
            print(f"sleep overhead check [{verdict}]: {sleep_overhead_pct:+.1f}% "
                  f"(max {args.sleep_overhead_max:.0f}%)")
            failed |= verdict == "FAIL"
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
