"""Command-line interface: ``repro-sim`` / ``python -m repro.cli``.

Subcommands:

* ``run``       — simulate one workload under one policy and print metrics
* ``watch``     — stream live power/queue telemetry while a run simulates
* ``sweep``     — run a custom policy/size grid (parallel-friendly)
* ``table``     — regenerate paper Table 1 or 3
* ``figure``    — regenerate a paper figure (3-9)
* ``ablation``  — run one of the ablation studies (beta, static, strict,
                  policies, gears, sleep)
* ``generate``  — write a synthetic workload to an SWF file
* ``stats``     — describe a workload (synthetic or an SWF file)
* ``report``    — regenerate the full reproduction report (markdown)
* ``advise``    — recommend a system size meeting a BSLD SLA (§5.2 as a tool)

Figure, ablation and scheduler names come from the registries in
:mod:`repro.registry`, so newly registered components appear in the CLI
without edits here.  The global ``--parallel N`` flag fans the
simulation sweeps behind ``sweep``/``table``/``figure``/``ablation``
out over N worker processes, and ``--cache-dir`` persists results
across invocations.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import NoReturn, Sequence

from repro.cluster.power import SleepPolicy
from repro.experiments.config import PolicySpec, RunSpec
from repro.experiments.runner import ExperimentRunner
from repro.registry import (
    ABLATIONS,
    FIGURES,
    POWER_MODELS,
    SCHEDULERS,
    SLEEP_POLICIES,
)
from repro.serve.protocol import ServeError, error_json
from repro.workloads.generator import generate_workload, load_workload
from repro.workloads.models import WORKLOAD_NAMES, trace_model
from repro.workloads.stats import workload_stats
from repro.workloads.swf import read_swf, write_swf

#: Set per-invocation by :func:`main`; parser errors consult it so the
#: ``--json`` contract covers argparse's own failures too.
_JSON_MODE = False


class _Parser(argparse.ArgumentParser):
    """ArgumentParser whose errors honour the global ``--json`` mode.

    ``add_subparsers`` instantiates subparsers with ``type(self)``, so
    every subcommand parser inherits this behaviour automatically.
    """

    def error(self, message: str) -> NoReturn:
        if _JSON_MODE:
            failure = ServeError("invalid_request", message)
            print(error_json(failure), file=sys.stderr)
            raise SystemExit(failure.exit_code)
        super().error(message)
        raise AssertionError("unreachable")  # argparse's error() always exits


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="repro-sim",
        description=(
            "Power-aware EASY backfilling on DVFS clusters - reproduction of "
            "Etinski et al., IPDPS Workshops 2010."
        ),
    )
    from repro import __version__

    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    parser.add_argument(
        "--json", action="store_true",
        help="machine-readable errors: one line of JSON on stderr plus a "
             "stable exit code (the serve daemon's error schema)",
    )
    parser.add_argument(
        "--jobs", type=int, default=5000, help="trace length (default: 5000, as in the paper)"
    )
    parser.add_argument(
        "--parallel", type=int, default=0, metavar="N",
        help="run simulation sweeps in up to N worker processes (default: serial)",
    )
    parser.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="persist simulation results as JSON under DIR and reuse them",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="simulate one workload under one policy")
    run.add_argument("workload", choices=WORKLOAD_NAMES)
    run.add_argument("--bsld-threshold", type=float, default=None,
                     help="enable the BSLD-threshold policy with this threshold")
    run.add_argument("--wq-threshold", default="NO",
                     help="wait-queue threshold (integer or NO; default NO)")
    run.add_argument("--size-factor", type=float, default=1.0,
                     help="machine enlargement factor (paper 5.2)")
    run.add_argument("--scheduler", choices=SCHEDULERS.names(), default="easy")
    run.add_argument("--power-model", choices=POWER_MODELS.names(), default="paper",
                     help="registered power model (default: paper)")
    run.add_argument("--beta", type=float, default=0.5, help="global beta (default 0.5)")
    run.add_argument("--boost", type=int, default=None,
                     help="dynamic-boost WQ trigger (extension; default off)")
    run.add_argument("--seed", type=int, default=None)
    _add_sleep_flags(run)
    run.set_defaults(handler=_cmd_run)

    watch = sub.add_parser(
        "watch", help="stream live telemetry from a steppable simulation session"
    )
    watch.add_argument("workload", choices=WORKLOAD_NAMES)
    watch.add_argument("--bsld-threshold", type=float, default=None,
                       help="enable the BSLD-threshold policy with this threshold")
    watch.add_argument("--wq-threshold", default="NO",
                       help="wait-queue threshold (integer or NO; default NO)")
    watch.add_argument("--scheduler", choices=SCHEDULERS.names(), default="easy")
    watch.add_argument("--seed", type=int, default=None)
    watch.add_argument("--interval", type=float, default=6 * 3600.0, metavar="SECONDS",
                       help="minimum simulated seconds between telemetry lines "
                            "(default: 21600, one line per 6 simulated hours)")
    watch.add_argument("--cap", type=float, default=None, metavar="WATTS",
                       help="attach a power-cap controller enforcing this cap "
                            "(model watts; see `run` output for the scale)")
    watch.add_argument("--step-events", type=int, default=256, metavar="N",
                       help="events to simulate between output flushes (default: 256)")
    _add_sleep_flags(watch)
    watch.set_defaults(handler=_cmd_watch)

    sweep = sub.add_parser(
        "sweep", help="run a policy/size grid through the batch runner"
    )
    sweep.add_argument("--workloads", nargs="+", choices=WORKLOAD_NAMES,
                       default=list(WORKLOAD_NAMES), metavar="W")
    sweep.add_argument("--bsld-thresholds", default="1.5,2,3",
                       help="comma-separated BSLD thresholds (default: 1.5,2,3)")
    sweep.add_argument("--wq-thresholds", default="0,4,16,NO",
                       help="comma-separated WQ thresholds, NO = no limit")
    sweep.add_argument("--size-factors", default="1",
                       help="comma-separated machine enlargement factors (default: 1)")
    sweep.add_argument("--scheduler", choices=SCHEDULERS.names(), default="easy")
    sweep.add_argument(
        "--aggregates-only", action="store_true",
        help="keep only headline metrics per run (fleet-scale memory footprint)",
    )
    sweep.add_argument(
        "--manifest", default=None, metavar="PATH",
        help="journal per-spec status to this JSONL file (crash-safe sweeps; "
             "needs --cache-dir)",
    )
    sweep.add_argument(
        "--resume", action="store_true",
        help="resume an interrupted --manifest sweep, re-running only unfinished specs",
    )
    sweep.add_argument(
        "--on-error", choices=("raise", "skip", "retry"), default="retry",
        help="what a failing run does to a --manifest sweep (default: retry)",
    )
    sweep.add_argument(
        "--retries", type=int, default=2,
        help="extra attempts per failing run under --on-error retry (default: 2)",
    )
    sweep.set_defaults(handler=_cmd_sweep)

    table = sub.add_parser("table", help="regenerate a paper table")
    table.add_argument("number", type=int, choices=(1, 3))
    table.set_defaults(handler=_cmd_table)

    figure = sub.add_parser("figure", help="regenerate a paper figure")
    figure.add_argument(
        "number", type=int, choices=sorted(int(name) for name in FIGURES.names())
    )
    figure.set_defaults(handler=_cmd_figure)

    ablation = sub.add_parser("ablation", help="run an ablation study")
    ablation.add_argument("name", choices=ABLATIONS.names())
    ablation.add_argument("--workload", default=None, choices=WORKLOAD_NAMES)
    ablation.set_defaults(handler=_cmd_ablation)

    generate = sub.add_parser("generate", help="write a synthetic workload as SWF")
    generate.add_argument("workload", choices=WORKLOAD_NAMES)
    generate.add_argument("output", help="output .swf path")
    generate.add_argument("--seed", type=int, default=None)
    generate.set_defaults(handler=_cmd_generate)

    stats = sub.add_parser("stats", help="describe a workload")
    stats.add_argument("workload", help=f"one of {', '.join(WORKLOAD_NAMES)} or an .swf path")
    stats.set_defaults(handler=_cmd_stats)

    report = sub.add_parser(
        "report", help="regenerate the full reproduction report (markdown)"
    )
    report.add_argument("--output", default=None, help="write to a file instead of stdout")
    report.add_argument(
        "--no-ablations", action="store_true", help="skip the (slower) ablation studies"
    )
    report.set_defaults(handler=_cmd_report)

    advise = sub.add_parser(
        "advise", help="recommend a system size meeting a BSLD service-level agreement"
    )
    advise.add_argument("workload", choices=WORKLOAD_NAMES)
    advise.add_argument("--sla-bsld", type=float, required=True,
                        help="maximum acceptable average BSLD")
    advise.add_argument("--bsld-threshold", type=float, default=2.0)
    advise.add_argument("--wq-threshold", default="NO")
    advise.add_argument("--objective", choices=("idle0", "idlelow"), default="idlelow")
    advise.set_defaults(handler=_cmd_advise)

    serve = sub.add_parser(
        "serve", help="run the simulation-as-a-service daemon (HTTP/JSON)"
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8642,
                       help="TCP port (0 binds an ephemeral port; default: 8642)")
    serve.add_argument("--max-workers", type=int, default=4,
                       help="concurrent runs, each in its own simulation worker "
                            "process; workers start on the first job and are "
                            "reused (default: 4)")
    serve.add_argument("--slice-events", type=int, default=20_000,
                       help="events per cooperative run_for slice (default: 20000)")
    serve.add_argument("--max-inflight", type=int, default=4,
                       help="per-client concurrent runs (default: 4)")
    serve.add_argument("--max-events", type=int, default=10_000,
                       help="per-job telemetry replay-buffer bound (default: 10000)")
    serve.add_argument("--max-wall-seconds", type=float, default=300.0,
                       help="per-run wall-clock budget (default: 300)")
    serve.add_argument("--lease-seconds", type=float, default=60.0,
                       help="per-slice progress lease before the watchdog "
                            "cancels a wedged run (default: 60)")
    serve.add_argument("--shed-inflight", type=int, default=None,
                       help="load-shedding high-water mark: refuse new "
                            "submissions with 503 + Retry-After once this "
                            "many jobs are non-terminal (default: off)")
    serve.add_argument("--drain-grace", type=float, default=30.0,
                       help="seconds SIGTERM lets in-flight jobs finish "
                            "before the daemon exits (default: 30)")
    serve.set_defaults(handler=_cmd_serve)

    submit = sub.add_parser(
        "submit", help="submit a RunSpec JSON document to a serve daemon"
    )
    submit.add_argument("spec", help="path to a spec JSON document, or - for stdin")
    submit.add_argument("--server", default="127.0.0.1:8642", metavar="HOST:PORT")
    submit.add_argument("--client-id", default=None,
                        help="quota bucket sent as X-Repro-Client")
    submit.add_argument("--wait", action="store_true",
                        help="block until done and print the result JSON on stdout")
    submit.add_argument("--aggregates-only", action="store_true",
                        help="with --wait, fetch the reduced (headline-metrics) result")
    submit.add_argument("--stream", action="store_true",
                        help="stream telemetry rows (NDJSON) to stdout while running")
    submit.add_argument("--timeout", type=float, default=300.0,
                        help="client-side wait budget in seconds (default: 300)")
    submit.set_defaults(handler=_cmd_submit)

    status = sub.add_parser(
        "status", help="query a serve daemon: job status, or server stats"
    )
    status.add_argument("job_id", nargs="?", default=None,
                        help="job to inspect (omit for server-wide stats)")
    status.add_argument("--server", default="127.0.0.1:8642", metavar="HOST:PORT")
    status.set_defaults(handler=_cmd_status)

    return parser


def _runner(args: argparse.Namespace, aggregates_only: bool = False) -> ExperimentRunner:
    """The experiment runner honouring the global flags."""
    if args.parallel < 0:
        raise SystemExit(f"--parallel must be >= 0, got {args.parallel}")
    return ExperimentRunner(
        n_jobs=args.jobs,
        max_workers=args.parallel or None,
        cache_dir=args.cache_dir,
        aggregates_only=aggregates_only,
    )


def _add_sleep_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--sleep", default=None, choices=SLEEP_POLICIES.names(), metavar="PRESET",
        help="power down idle nodes in-engine using this sleep-policy preset "
             f"({', '.join(SLEEP_POLICIES.names())}; default: always-on machine)",
    )
    parser.add_argument(
        "--sleep-after", type=float, default=None, metavar="SECONDS",
        help="override the preset's idle threshold before nodes power down",
    )
    parser.add_argument(
        "--wake-seconds", type=float, default=None, metavar="SECONDS",
        help="override the preset's wake-transition latency",
    )


def _parse_sleep(args: argparse.Namespace) -> SleepPolicy | None:
    overrides = {}
    if args.sleep_after is not None:
        overrides["sleep_after_seconds"] = args.sleep_after
    if args.wake_seconds is not None:
        overrides["wake_seconds"] = args.wake_seconds
    if args.sleep is None:
        if overrides:
            raise SystemExit("--sleep-after/--wake-seconds need --sleep PRESET")
        return None
    try:
        return SleepPolicy.preset(args.sleep, **overrides)
    except ValueError as exc:
        raise SystemExit(str(exc)) from None


def _parse_wq(raw: str) -> int | None:
    if raw.upper() in ("NO", "NONE", "NOLIMIT", "NO_LIMIT"):
        return None
    try:
        value = int(raw)
    except ValueError:
        raise SystemExit(f"--wq-threshold must be an integer or NO, got {raw!r}") from None
    if value < 0:
        raise SystemExit(f"--wq-threshold must be >= 0, got {value}")
    return value


def _parse_float_list(raw: str, flag: str) -> tuple[float, ...]:
    try:
        values = tuple(float(part) for part in raw.split(",") if part.strip())
    except ValueError:
        raise SystemExit(f"{flag} must be a comma-separated list of numbers, got {raw!r}") from None
    if not values:
        raise SystemExit(f"{flag} must name at least one value")
    return values


def _cmd_run(args: argparse.Namespace) -> int:
    runner = _runner(args)
    if args.bsld_threshold is None:
        policy = PolicySpec.baseline()
    else:
        policy = PolicySpec.power_aware(
            args.bsld_threshold, _parse_wq(args.wq_threshold), boost_trigger=args.boost
        )
    result, baseline = runner.run_many(
        [
            RunSpec(
                workload=args.workload,
                policy=policy,
                seed=args.seed,
                size_factor=args.size_factor,
                beta=args.beta,
                scheduler=args.scheduler,
                power_model=args.power_model,
                sleep=_parse_sleep(args),
            ),
            # The reference stays an always-on no-DVFS machine so the
            # energy ratios isolate what the policy (and sleep) saved.
            RunSpec(
                workload=args.workload, seed=args.seed,
                scheduler=args.scheduler, power_model=args.power_model,
            ),
        ]
    )
    print(result.describe())
    sleep_report = result.energy.sleep
    if sleep_report is not None:
        print(
            f"sleep states:       {sleep_report.sleep_fraction:.1%} of idle time asleep, "
            f"{sleep_report.wake_count} wakes, "
            f"{sleep_report.wake_delayed_jobs} starts stalled "
            f"{sleep_report.wake_delay_seconds_total:.0f}s total"
        )
    print(f"energy (idle=0):    {result.energy.computational:.4g} "
          f"[{result.energy.computational / baseline.energy.computational:.3f} of no-DVFS]")
    print(f"energy (idle=low):  {result.energy.total_idle_low:.4g} "
          f"[{result.energy.total_idle_low / baseline.energy.total_idle_low:.3f} of no-DVFS]")
    print(f"events processed:   {result.events_processed}")
    histogram = ", ".join(
        f"{gear.frequency:g}GHz: {count}" for gear, count in sorted(result.gear_histogram().items())
    )
    print(f"gear histogram:     {histogram}")
    return 0


def _cmd_watch(args: argparse.Namespace) -> int:
    from repro.api import Simulation
    from repro.experiments.config import InstrumentSpec

    if args.step_events <= 0:
        raise SystemExit(f"--step-events must be positive, got {args.step_events}")
    if args.bsld_threshold is None:
        policy = PolicySpec.baseline()
    else:
        policy = PolicySpec.power_aware(args.bsld_threshold, _parse_wq(args.wq_threshold))
    instruments = [InstrumentSpec.of("power_telemetry", min_interval=args.interval)]
    if args.cap is not None:
        if args.cap <= 0:
            raise SystemExit(f"--cap must be positive, got {args.cap}")
        instruments.append(InstrumentSpec.of("power_cap", cap=args.cap))
    sleep = _parse_sleep(args)
    # A disabled override (--sleep-after inf) bypasses the subsystem
    # entirely; show the asleep column only when it can ever be nonzero.
    show_asleep = sleep is not None and sleep.enabled
    spec = RunSpec(
        workload=args.workload,
        policy=policy,
        n_jobs=args.jobs,
        seed=args.seed,
        scheduler=args.scheduler,
        instruments=tuple(instruments),
        sleep=sleep,
    )
    session = Simulation(spec).session()
    sampler = session.instrument("power_telemetry")
    controller = session.instrument("power_cap") if args.cap is not None else None

    print(f"watching {spec.label()} ({args.jobs} jobs)")
    header = f"{'sim time [s]':>14} {'power [W]':>11} {'busy CPUs':>10} {'queued':>7}"
    if show_asleep:
        header += f" {'asleep':>7}"
    if controller is not None:
        header += f" {'gear cap':>9}"
    print(header)
    printed = 0
    # The cap column is reconstructed from the controller's transition
    # log so each line shows the cap in force at the *sample's* time,
    # not whatever it is when the batch flushes.
    transition_index = 0
    cap_at_sample: float | None = None
    while not session.done:
        session.run_for(args.step_events)
        for time, watts, busy, depth, asleep in sampler.samples[printed:]:
            line = f"{time:>14.0f} {watts:>11.1f} {busy:>10.0f} {depth:>7.0f}"
            if show_asleep:
                line += f" {asleep:>7.0f}"
            if controller is not None:
                transitions = controller.transitions
                while (
                    transition_index < len(transitions)
                    and transitions[transition_index][0] <= time
                ):
                    cap_at_sample = transitions[transition_index][2]
                    transition_index += 1
                label = "-" if cap_at_sample is None else f"{cap_at_sample:g}GHz"
                line += f" {label:>9}"
            print(line)
        printed = len(sampler.samples)

    result = session.result()
    print()
    print(result.describe())
    telemetry = result.instrument("power_telemetry")
    print(
        f"power: peak {telemetry['peak_watts']:.1f} at t={telemetry['peak_time']:.0f}, "
        f"mean {telemetry['mean_watts']:.1f} over {telemetry['sample_count']} samples"
    )
    if controller is not None:
        report = result.instrument("power_cap")
        print(
            f"cap {report['cap']:g}: {report['reductions']} gear reductions, "
            f"{len(report['transitions'])} transitions, "
            f"{report['time_capped']:.0f}s spent capped"
        )
    sleep_report = result.energy.sleep
    if sleep_report is not None:
        print(
            f"sleep: {sleep_report.sleep_fraction:.1%} of idle time asleep, "
            f"{sleep_report.wake_count} wakes, "
            f"{sleep_report.wake_delayed_jobs} starts stalled by wake latency"
        )
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    from repro.experiments.ascii_charts import format_table

    bsld_thresholds = _parse_float_list(args.bsld_thresholds, "--bsld-thresholds")
    wq_parts = [part for part in args.wq_thresholds.split(",") if part.strip()]
    if not wq_parts:
        raise SystemExit("--wq-thresholds must name at least one value")
    wq_thresholds = tuple(_parse_wq(part) for part in wq_parts)
    size_factors = _parse_float_list(args.size_factors, "--size-factors")
    if args.resume and args.manifest is None:
        raise SystemExit("--resume needs --manifest PATH")

    baselines = {
        workload: RunSpec(workload=workload, scheduler=args.scheduler)
        for workload in args.workloads
    }
    grid: list[RunSpec] = [
        RunSpec(
            workload=workload,
            policy=PolicySpec.power_aware(bsld, wq),
            size_factor=factor,
            scheduler=args.scheduler,
        )
        for workload in args.workloads
        for bsld in bsld_thresholds
        for wq in wq_thresholds
        for factor in size_factors
    ]
    all_specs = [*baselines.values(), *grid]

    if args.manifest is not None:
        # The crash-safe path: per-spec status journaled to the
        # manifest, finished results persisted in the cache, failures
        # reported instead of aborting the grid.
        if args.cache_dir is None:
            raise SystemExit(
                "--manifest needs --cache-dir (the cache holds the resumable results)"
            )
        from repro.sweep import run_sweep

        if args.parallel < 0:
            raise SystemExit(f"--parallel must be >= 0, got {args.parallel}")
        try:
            report = run_sweep(
                all_specs,
                manifest_path=args.manifest,
                cache_dir=args.cache_dir,
                resume=args.resume,
                max_workers=args.parallel or 1,
                default_n_jobs=args.jobs,
                aggregates_only=args.aggregates_only,
                on_error=args.on_error,
                retries=args.retries,
            )
        except (FileExistsError, ValueError) as exc:
            raise SystemExit(str(exc)) from None
        results = dict(zip(all_specs, report.results, strict=True))
        print(
            f"sweep: {report.completed} simulated, {report.skipped} from cache, "
            f"{len(report.failures)} failed (manifest: {args.manifest})"
        )
    else:
        runner = _runner(args, args.aggregates_only)
        runner.run_many(all_specs)
        results = {spec: runner.run(spec) for spec in all_specs}

    rows = []
    for spec in grid:
        run = results[spec]
        base = results[baselines[spec.workload]]
        if run is None or base is None:
            rows.append([spec.label(), "FAILED", "-", "-", "-", "-"])
            continue
        rows.append(
            [
                spec.label(),
                f"{run.average_bsld():.2f}",
                f"{run.average_wait():.0f}",
                f"{run.energy.computational / base.energy.computational:.3f}",
                f"{run.energy.total_idle_low / base.energy.total_idle_low:.3f}",
                str(run.reduced_jobs),
            ]
        )
    print(
        format_table(
            ["run", "avg BSLD", "avg wait [s]", "E_idle0/base", "E_idlelow/base", "reduced"],
            rows,
            title=(
                f"Sweep — {len(grid)} runs, {args.scheduler} scheduler "
                "(energies vs original-size no-DVFS baseline)"
            ),
        )
    )
    if args.manifest is not None and report.failures:
        print()
        for failure in report.failures:
            print(
                f"FAILED after {failure.attempts} attempt(s): "
                f"{failure.spec.label()} — {failure.error}"
            )
        print("resume with the same command plus --resume to retry failed specs")
    return 0


def _cmd_table(args: argparse.Namespace) -> int:
    from repro.experiments.tables import table1, table3

    runner = _runner(args)
    builder = table1 if args.number == 1 else table3
    print(builder(runner).render())
    return 0


def _cmd_figure(args: argparse.Namespace) -> int:
    runner = _runner(args)
    print(FIGURES.get(str(args.number))(runner).render())
    return 0


def _cmd_ablation(args: argparse.Namespace) -> int:
    runner = _runner(args)
    builder = ABLATIONS.get(args.name)
    kwargs = {} if args.workload is None else {"workload": args.workload}
    print(builder(runner, **kwargs).render())
    return 0


def _cmd_generate(args: argparse.Namespace) -> int:
    model = trace_model(args.workload)
    jobs = generate_workload(model, args.jobs, args.seed)
    write_swf(
        args.output,
        jobs,
        max_procs=model.cpus,
        extra_header={"Workload": model.name, "Note": "synthetic repro trace"},
    )
    print(f"wrote {len(jobs)} jobs to {args.output} (machine: {model.cpus} CPUs)")
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    if args.workload in WORKLOAD_NAMES:
        jobs = load_workload(args.workload, args.jobs)
        cpus: int | None = trace_model(args.workload).cpus
        print(f"{args.workload} (synthetic, {len(jobs)} jobs)")
    else:
        header, jobs = read_swf(args.workload)
        cpus = header.max_procs
        print(f"{args.workload} ({len(jobs)} jobs from SWF)")
    print(workload_stats(jobs, cpus).render())
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.experiments.report import build_report

    runner = _runner(args)
    text = build_report(runner, include_ablations=not args.no_ablations)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as stream:
            stream.write(text)
        print(f"wrote report to {args.output}")
    else:
        print(text)
    return 0


def _cmd_advise(args: argparse.Namespace) -> int:
    from repro.experiments.advisor import recommend_system_size

    runner = _runner(args)
    policy = PolicySpec.power_aware(args.bsld_threshold, _parse_wq(args.wq_threshold))
    recommendation = recommend_system_size(
        runner, args.workload, args.sla_bsld, policy=policy, objective=args.objective
    )
    print(recommendation.render())
    if recommendation.chosen is not None:
        chosen = recommendation.chosen
        print(
            f"\n=> recommend a {(chosen.size_factor - 1) * 100:.0f}% larger system: "
            f"avg BSLD {chosen.avg_bsld:.2f} (SLA {args.sla_bsld:g}), "
            f"{args.objective} energy at {getattr(chosen, 'energy_' + args.objective):.3f} "
            f"of the original no-DVFS machine"
        )
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import signal

    from repro.serve.quotas import QuotaPolicy
    from repro.serve.server import ReproServer

    try:
        quota = QuotaPolicy(
            max_inflight=args.max_inflight,
            max_events=args.max_events,
            max_wall_seconds=args.max_wall_seconds,
            lease_seconds=args.lease_seconds,
        )
        server = ReproServer(
            args.host,
            args.port,
            cache_dir=args.cache_dir,
            max_workers=args.max_workers,
            quota=quota,
            default_n_jobs=args.jobs,
            slice_events=args.slice_events,
            shed_inflight=args.shed_inflight,
        )
    except ValueError as exc:
        raise SystemExit(str(exc)) from None
    server.start_in_thread()

    # SIGTERM drains gracefully: stop accepting, let in-flight jobs
    # finish for --drain-grace seconds, journal whatever remains, exit.
    # (SIGINT keeps its abrupt-but-clean KeyboardInterrupt path below.)
    def _on_sigterm(_signum: int, _frame: object) -> None:
        print(
            f"SIGTERM: draining (grace {args.drain_grace}s)", flush=True
        )
        server.request_drain(args.drain_grace)

    try:
        signal.signal(signal.SIGTERM, _on_sigterm)
    except ValueError:
        pass  # not on the main thread (embedded use); drain via API only
    print(
        f"repro serve listening on {server.address} "
        f"(cache: {args.cache_dir or 'off'}, workers: {args.max_workers})",
        flush=True,
    )
    try:
        while not server.wait(1.0):
            pass
    except KeyboardInterrupt:
        print("shutting down", flush=True)
    finally:
        server.stop()
    return 0


def _cmd_submit(args: argparse.Namespace) -> int:
    from repro.serve.client import ServeClient

    if args.spec == "-":
        text = sys.stdin.read()
    else:
        try:
            with open(args.spec, "r", encoding="utf-8") as stream:
                text = stream.read()
        except OSError as exc:
            raise SystemExit(f"cannot read spec: {exc}") from None
    try:
        document = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ServeError("invalid_request", f"spec is not valid JSON: {exc}") from None
    if not isinstance(document, dict):
        raise ServeError("invalid_request", "spec must be a JSON object")
    try:
        client = ServeClient(args.server, client_id=args.client_id or "cli")
    except ValueError as exc:
        raise SystemExit(str(exc)) from None
    try:
        job = client.submit(document.get("spec", document))
        # Progress on stderr so stdout stays pipeable result/telemetry.
        print(
            f"submitted {job['job_id']} "
            f"({'deduped' if job.get('deduped') else 'new'}, state: {job['state']})",
            file=sys.stderr,
        )
        if args.stream:
            for row in client.stream_events(job["job_id"], timeout=args.timeout):
                print(json.dumps(row, separators=(",", ":")))
        if args.wait or args.aggregates_only:
            data = client.result_bytes(
                job["job_id"],
                aggregates_only=args.aggregates_only,
                timeout=args.timeout,
            )
            sys.stdout.write(data.decode("utf-8") + "\n")
        else:
            print(job["job_id"])
    except OSError as exc:
        raise ServeError(
            "unavailable", f"cannot reach server at {args.server}: {exc}"
        ) from None
    return 0


def _cmd_status(args: argparse.Namespace) -> int:
    from repro.serve.client import ServeClient

    try:
        client = ServeClient(args.server)
    except ValueError as exc:
        raise SystemExit(str(exc)) from None
    try:
        payload = client.status(args.job_id) if args.job_id else client.stats()
    except OSError as exc:
        raise ServeError(
            "unavailable", f"cannot reach server at {args.server}: {exc}"
        ) from None
    print(json.dumps(payload, indent=2, sort_keys=True))
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    arg_list = list(argv) if argv is not None else sys.argv[1:]
    global _JSON_MODE
    _JSON_MODE = "--json" in arg_list
    try:
        args = _build_parser().parse_args(arg_list)
        return args.handler(args)
    except ServeError as exc:
        # The shared error schema: one JSON line + stable exit code in
        # --json mode, the familiar message-and-exit otherwise.
        if _JSON_MODE:
            print(error_json(exc), file=sys.stderr)
            return exc.exit_code
        raise SystemExit(str(exc)) from None
    except SystemExit as exc:
        if not _JSON_MODE:
            raise
        if isinstance(exc.code, str):
            failure = ServeError("invalid_request", exc.code)
            print(error_json(failure), file=sys.stderr)
            return failure.exit_code
        # Parser errors in --json mode already printed their JSON line;
        # hand the stable exit code back as a return value so embedding
        # callers (and tests) see one consistent contract.
        return exc.code if isinstance(exc.code, int) else 0


if __name__ == "__main__":
    sys.exit(main())
