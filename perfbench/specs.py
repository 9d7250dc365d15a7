"""The benchmark's inputs: seed -> the RunSpecs each workload submits.

The program under test only ever sees these specs, and every one of
them carries the benchmark seed as ``RunSpec.seed``.  All traces are
the paper's calibrated ``synthetic`` SDSC/CTC models.  ``jobs_cap``
shrinks every trace (the smoke test runs a few hundred jobs per spec);
``None`` is the benchmark's real scale.
"""

from __future__ import annotations

import random

from repro.experiments.config import PolicySpec, RunSpec

TRACES = ("SDSC", "CTC")

#: The paper's BSLD x WQ grid, as ``ExperimentRunner.run_many`` sweeps it.
SWEEP_BSLD = (1.5, 2.0, 3.0)
SWEEP_WQ = (0, 4, None)

#: A wider grid for serve: a run fetches up to ~60 distinct specs at
#: today's speed, and a 3x faster daemon must still find fresh ones.
SERVE_BSLD = (1.25, 1.5, 1.75, 2.0, 2.5, 3.0, 4.0, 5.0)
SERVE_WQ = (0, 1, 2, 4, 8, 16, 32, None)


def _jobs(n_jobs: int, jobs_cap: int | None) -> int:
    return n_jobs if jobs_cap is None else min(n_jobs, jobs_cap)


def inproc_spec(seed: int, jobs_cap: int | None = None) -> RunSpec:
    """SDSC-200k under DVFS(2,NO) on the columnar lane: the deep-queue cell."""
    return RunSpec(
        workload="SDSC",
        n_jobs=_jobs(200_000, jobs_cap),
        seed=seed,
        policy=PolicySpec.power_aware(2.0, None),
        engine="columnar",
    )


def sweep_grid(seed: int, jobs_cap: int | None = None) -> list[RunSpec]:
    """{SDSC, CTC} x 20k jobs x BSLD {1.5, 2, 3} x WQ {0, 4, NO} on the default lane."""
    return [
        RunSpec(
            workload=trace,
            n_jobs=_jobs(20_000, jobs_cap),
            seed=seed,
            policy=PolicySpec.power_aware(bsld, wq),
        )
        for trace in TRACES
        for bsld in SWEEP_BSLD
        for wq in SWEEP_WQ
    ]


def stash_half(grid: list[RunSpec]) -> list[RunSpec]:
    """The half of the grid a sweep finds already cached (both traces mixed)."""
    return grid[::2]


def serve_grid(seed: int, jobs_cap: int | None = None) -> list[RunSpec]:
    """Every distinct spec serve-loopback may submit (SDSC/CTC 5k jobs)."""
    return [
        RunSpec(
            workload=trace,
            n_jobs=_jobs(5000, jobs_cap),
            seed=seed,
            policy=PolicySpec.power_aware(bsld, wq),
        )
        for trace in TRACES
        for bsld in SERVE_BSLD
        for wq in SERVE_WQ
    ]


def serve_plan(seed: int, jobs_cap: int | None = None) -> list[RunSpec]:
    """The submission sequence.

    Fresh specs come in one fixed order for every seed, alternating SDSC
    and CTC, so every run serves the same policy mix however far it gets
    (a seed-shuffled order made the served mix, and with it the latency,
    depend on the seed).  In each block of four submissions, one
    seed-chosen slot repeats a fresh spec issued four to eight fresh
    specs earlier: single-flight dedup, answered at once because that
    job is almost always done by then, so a repeat never leaves the other
    client's request running alone and fresh latencies stay one mode.
    """
    per_trace = [[spec for spec in serve_grid(seed, jobs_cap) if spec.workload == trace]
                 for trace in TRACES]  # fmt: skip
    for specs_of_trace in per_trace:
        random.Random(0).shuffle(specs_of_trace)  # the same order for every seed
    fresh = iter([spec for pair in zip(*per_trace) for spec in pair])
    rng = random.Random(seed)
    plan: list[RunSpec] = []
    issued: list[RunSpec] = []
    for block in range(len(per_trace[0]) * len(TRACES) // 3):
        repeat_at = rng.randrange(1, 4) if block == 0 else rng.randrange(4)
        for slot in range(4):
            if slot == repeat_at:
                plan.append(rng.choice(issued[-8:-4] or issued[:1]))
            else:
                issued.append(next(fresh))
                plan.append(issued[-1])
    return plan


def all_specs(seed: int, jobs_cap: int | None = None) -> list[RunSpec]:
    """Every spec any workload may submit for ``seed``."""
    return [inproc_spec(seed, jobs_cap), *sweep_grid(seed, jobs_cap), *serve_grid(seed, jobs_cap)]
