"""The one way to construct and run a simulation: the ``repro.api`` facade.

A :class:`~repro.experiments.config.RunSpec` fully describes a run —
workload, trace length, machine scale, scheduler, frequency policy,
power model.  :class:`Simulation` materialises it end to end through
the registries in :mod:`repro.registry`::

    >>> from repro.api import Simulation
    >>> from repro.experiments.config import PolicySpec, RunSpec
    >>> spec = RunSpec(workload="CTC", n_jobs=500,
    ...                policy=PolicySpec.power_aware(2.0, 4))
    >>> result = Simulation(spec).run()
    >>> result.average_bsld()  # doctest: +SKIP

For runtime visibility and control, :meth:`Simulation.session` arms a
steppable :class:`~repro.session.SimulationSession` over the same spec
(``run()`` is the trivial run-to-completion wrapper).

Everything else — :class:`~repro.experiments.runner.ExperimentRunner`,
:class:`~repro.batch.BatchRunner`, the CLI, the examples — delegates
construction to this facade, so registering a new scheduler, policy
kind, power model, workload source or instrument makes it available
everywhere at once.
"""

from __future__ import annotations

from dataclasses import replace
from typing import TYPE_CHECKING, Sequence

from repro.cluster.machine import Machine
from repro.registry import ENGINES, POWER_MODELS, SCHEDULERS, WORKLOAD_SOURCES
from repro.scheduling.base import Scheduler, SchedulerConfig
from repro.scheduling.job import Job
from repro.sim.lanes import resolve_engine_name

if TYPE_CHECKING:  # imported for annotations only; avoids package cycles
    from repro.experiments.config import RunSpec
    from repro.instruments import Instrument
    from repro.scheduling.result import SimulationResult
    from repro.session import SimulationSession

__all__ = ["DEFAULT_N_JOBS", "Simulation", "normalize_spec", "run"]

#: Trace length used when a spec leaves ``n_jobs`` unset (the paper's §5).
DEFAULT_N_JOBS = 5000


def normalize_spec(spec: RunSpec, default_n_jobs: int = DEFAULT_N_JOBS) -> RunSpec:
    """Pin an unset (``None``) trace length to ``default_n_jobs``.

    Normalising before caching makes the cache keys for "the
    default-length run" coincide regardless of how callers spell it.
    """
    if spec.n_jobs is None:
        return replace(spec, n_jobs=default_n_jobs)
    return spec


class Simulation:
    """Materialises one :class:`RunSpec`: workload → machine → scheduler → result.

    Parameters
    ----------
    spec:
        The run description.  An unset ``n_jobs`` defaults to
        :data:`DEFAULT_N_JOBS`.
    validate:
        Run with per-pass invariant checking on (slower).
    sanitize:
        Run with the deep structural sanitizer on
        (:mod:`repro.analysis.sanitize`; also enabled process-wide by
        ``REPRO_SANITIZE=1``).  A facade flag rather than a
        :class:`RunSpec` field: the sanitizer never changes results, so
        it must never change cache keys either.
    jobs / machine:
        Optional pre-materialised trace/machine (the experiment runner
        passes its memoised ones); by default both come from the spec's
        registered workload source.
    """

    def __init__(
        self,
        spec: RunSpec,
        *,
        validate: bool = False,
        sanitize: bool = False,
        jobs: Sequence[Job] | None = None,
        machine: Machine | None = None,
    ) -> None:
        self.spec = normalize_spec(spec)
        self._validate = validate
        self._sanitize = sanitize
        self._jobs: list[Job] | None = list(jobs) if jobs is not None else None
        self._machine = machine

    # -- materialisation --------------------------------------------------------
    def _materialize(self) -> None:
        if self._jobs is not None and self._machine is not None:
            return
        source = WORKLOAD_SOURCES.get(self.spec.source)
        bundle = source(self.spec.workload, self.spec.n_jobs, self.spec.seed)
        if self._jobs is None:
            self._jobs = list(bundle.jobs)
        if self._machine is None:
            self._machine = Machine(bundle.machine_name, bundle.total_cpus).scaled(
                self.spec.size_factor
            )

    @property
    def jobs(self) -> list[Job]:
        """The resolved trace (generated or loaded on first access)."""
        self._materialize()
        assert self._jobs is not None
        return self._jobs

    @property
    def machine(self) -> Machine:
        """The (scaled) machine the spec describes."""
        self._materialize()
        assert self._machine is not None
        return self._machine

    def build_scheduler(self) -> Scheduler:
        """Construct the fully-wired scheduler for this run."""
        spec = self.spec
        machine = self.machine
        scheduler_cls = SCHEDULERS.get(spec.scheduler)
        power_model = POWER_MODELS.get(spec.power_model)(machine.gears)
        return scheduler_cls(
            machine,
            spec.policy.build(),
            beta=spec.beta,
            power_model=power_model,
            config=SchedulerConfig(
                validate=self._validate,
                boost=spec.policy.boost_config(),
                record_timeline=spec.record_timeline,
                sleep=spec.sleep,
                sanitize=self._sanitize,
            ),
        )

    # -- execution --------------------------------------------------------------
    @property
    def validate(self) -> bool:
        """Whether per-pass invariant checking is on for this run."""
        return self._validate

    @property
    def sanitize(self) -> bool:
        """Whether the deep structural sanitizer is on for this run."""
        return self._sanitize

    def run(self) -> SimulationResult:
        """Simulate the spec to completion.

        Execution goes through the engine lane the spec resolves to:
        the fused ``columnar`` core when numpy is importable, else the
        ``reference`` core, unless ``spec.engine`` or ``REPRO_ENGINE``
        pins one (see :mod:`repro.sim.lanes`).  Every lane is
        byte-identical to the committed golden traces, so the choice
        affects speed only.  Instrumented specs run as
        ``session().result()`` on the reference core (sessions are
        steppable by construction).
        """
        if self.spec.instruments:
            return self.session().result()
        result: SimulationResult = ENGINES.get(resolve_engine_name(self.spec)).run(self)
        return result

    def session(self, *, instruments: Sequence[Instrument] = ()) -> SimulationSession:
        """Arm a steppable :class:`~repro.session.SimulationSession`.

        Instruments named by ``spec.instruments`` are built and
        attached, followed by any passed directly (pre-constructed
        instances, handy for programmatic observation).  No simulation
        event has been processed when this returns.
        """
        from repro.session import SimulationSession  # deferred: avoids a cycle

        return SimulationSession(self, instruments=instruments)


def run(spec: RunSpec, *, validate: bool = False) -> SimulationResult:
    """One-shot convenience: ``Simulation(spec).run()``."""
    return Simulation(spec, validate=validate).run()
