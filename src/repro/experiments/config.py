"""Hashable experiment descriptors: policies, runs and the paper grid.

Policy kinds and scheduler/power-model/source names are validated
against (and built through) the registries in :mod:`repro.registry`, so
registering a new component makes it spec-addressable with no edits
here.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.cluster.power import SleepPolicy
from repro.core.dynamic_boost import DynamicBoostConfig
from repro.core.frequency_policy import (
    BsldThresholdPolicy,
    FixedGearPolicy,
    FrequencyPolicy,
)
from repro.core.util_policy import UtilizationTriggeredPolicy
from repro.power.time_model import DEFAULT_BETA
from repro.registry import (
    ENGINES,
    INSTRUMENTS,
    POLICIES,
    POWER_MODELS,
    SCHEDULERS,
    WORKLOAD_SOURCES,
)

__all__ = [
    "PolicySpec",
    "InstrumentSpec",
    "RunSpec",
    "BSLD_THRESHOLDS",
    "WQ_THRESHOLDS",
    "SIZE_FACTORS",
    "wq_label",
]

#: The paper's BSLD-threshold grid (§5.1).
BSLD_THRESHOLDS: tuple[float, ...] = (1.5, 2.0, 3.0)
#: The paper's wait-queue-threshold grid; ``None`` is "NO LIMIT".
WQ_THRESHOLDS: tuple[int | None, ...] = (0, 4, 16, None)
#: System sizes of §5.2: original plus +10% … +125%.
SIZE_FACTORS: tuple[float, ...] = (1.0, 1.1, 1.2, 1.5, 1.75, 2.0, 2.25)


def wq_label(wq_threshold: int | None) -> str:
    """The paper's label for a wait-queue threshold (``NO`` = no limit)."""
    return "NO" if wq_threshold is None else str(wq_threshold)


@dataclass(frozen=True)
class PolicySpec:
    """Frozen, hashable description of a frequency policy.

    ``kind`` names a builder on :data:`repro.registry.POLICIES`; the
    bundled kinds are

      * ``"nodvfs"`` — every job at Ftop (the baseline),
      * ``"bsld"`` — the paper's two-threshold policy,
      * ``"fixed"`` — pin one gear for all jobs (strawman),
      * ``"util"`` — utilisation-triggered comparator.
    """

    kind: str = "nodvfs"
    bsld_threshold: float = 2.0
    wq_threshold: int | None = None
    strict_top_backfill: bool = False
    fixed_frequency: float | None = None
    boost_trigger: int | None = None

    def __post_init__(self) -> None:
        if self.kind not in POLICIES:
            raise ValueError(
                f"unknown policy kind {self.kind!r}; expected one of {POLICIES.names()}"
            )
        if self.kind == "fixed" and self.fixed_frequency is None:
            raise ValueError("fixed policy needs fixed_frequency")

    # -- factories ----------------------------------------------------------------
    @classmethod
    def baseline(cls) -> "PolicySpec":
        return cls(kind="nodvfs")

    @classmethod
    def power_aware(
        cls,
        bsld_threshold: float,
        wq_threshold: int | None,
        *,
        strict_top_backfill: bool = False,
        boost_trigger: int | None = None,
    ) -> "PolicySpec":
        return cls(
            kind="bsld",
            bsld_threshold=bsld_threshold,
            wq_threshold=wq_threshold,
            strict_top_backfill=strict_top_backfill,
            boost_trigger=boost_trigger,
        )

    # -- materialisation ----------------------------------------------------------
    def build(self) -> FrequencyPolicy:
        """Materialise the policy via its registered builder."""
        return POLICIES.get(self.kind)(self)

    def boost_config(self) -> DynamicBoostConfig | None:
        if self.boost_trigger is None:
            return None
        return DynamicBoostConfig(wq_trigger=self.boost_trigger)

    def label(self) -> str:
        if self.kind == "nodvfs":
            return "NoDVFS"
        if self.kind == "fixed":
            return f"Fixed{self.fixed_frequency:g}GHz"
        if self.kind == "util":
            return "UtilTrigger"
        base = f"DVFS({self.bsld_threshold:g},{wq_label(self.wq_threshold)})"
        if self.strict_top_backfill:
            base += "+strict"
        if self.boost_trigger is not None:
            base += f"+boost{self.boost_trigger}"
        return base


# -- the bundled policy builders ----------------------------------------------
@POLICIES.register("nodvfs")
def _build_nodvfs(spec: PolicySpec) -> FrequencyPolicy:
    return FixedGearPolicy()


@POLICIES.register("fixed")
def _build_fixed(spec: PolicySpec) -> FrequencyPolicy:
    return FixedGearPolicy(spec.fixed_frequency)


@POLICIES.register("util")
def _build_util(spec: PolicySpec) -> FrequencyPolicy:
    return UtilizationTriggeredPolicy()


@POLICIES.register("bsld")
def _build_bsld(spec: PolicySpec) -> FrequencyPolicy:
    return BsldThresholdPolicy(
        bsld_threshold=spec.bsld_threshold,
        wq_threshold=spec.wq_threshold,
        strict_top_backfill=spec.strict_top_backfill,
    )


def _tupled(value):
    """Recursively coerce lists to tuples (hashable spec params)."""
    if isinstance(value, (list, tuple)):
        return tuple(_tupled(item) for item in value)
    return value


@dataclass(frozen=True)
class InstrumentSpec:
    """Frozen, hashable description of one session instrument.

    ``name`` keys :data:`repro.registry.INSTRUMENTS`; ``params`` is a
    key-sorted tuple of ``(keyword, value)`` constructor arguments.
    Values must be hashable and JSON-representable (scalars or nested
    tuples) so specs carrying instruments keep working as cache keys.
    Build instances with :meth:`of`::

        InstrumentSpec.of("power_cap", cap=3500.0, release=0.9)
    """

    name: str
    params: tuple[tuple[str, object], ...] = ()

    def __post_init__(self) -> None:
        if self.name not in INSTRUMENTS:
            raise ValueError(
                f"unknown instrument {self.name!r}; expected one of {INSTRUMENTS.names()}"
            )
        normalized = tuple(sorted((key, _tupled(value)) for key, value in self.params))
        object.__setattr__(self, "params", normalized)

    @classmethod
    def of(cls, name: str, **params) -> "InstrumentSpec":
        """The ergonomic constructor: keyword params, canonicalised."""
        return cls(name=name, params=tuple(params.items()))

    def build(self):
        """Materialise the instrument via its registered class."""
        return INSTRUMENTS.get(self.name)(**dict(self.params))

    def label(self) -> str:
        return self.name


@dataclass(frozen=True)
class RunSpec:
    """One simulation to run: workload x machine scale x policy.

    ``n_jobs=None`` means "the context's default trace length": an
    :class:`~repro.experiments.runner.ExperimentRunner` pins it to its
    own ``n_jobs`` and the standalone :class:`~repro.api.Simulation`
    facade uses the paper's 5000.  ``scheduler``, ``power_model`` and
    ``source`` name entries on the corresponding registries;
    ``instruments`` attaches session observers/controllers by
    :class:`InstrumentSpec` (they ride along through every execution
    path, cache keys included).  ``sleep`` enables in-engine node
    power-down (:class:`~repro.cluster.power.SleepPolicy`, presets on
    :data:`~repro.registry.SLEEP_POLICIES`); like instruments it is
    serialized and cache-keyed.

    ``engine`` pins the simulation core to a lane on
    :data:`~repro.registry.ENGINES` — a test and benchmark pin (lane
    differentials, golden twins, per-lane timings).  ``None`` means
    automatic: ``REPRO_ENGINE`` if set, else the fused ``columnar``
    core when numpy is importable and ``reference`` otherwise.  Lanes
    are pinned byte-identical, so the field is *execution metadata*,
    not run identity: it is excluded from equality/hashing and from the
    canonical spec JSON, and two specs differing only in ``engine``
    share one cache entry.
    """

    workload: str
    policy: PolicySpec = field(default_factory=PolicySpec.baseline)
    n_jobs: int | None = None
    seed: int | None = None
    size_factor: float = 1.0
    beta: float = DEFAULT_BETA
    scheduler: str = "easy"
    power_model: str = "paper"
    source: str = "synthetic"
    record_timeline: bool = False
    instruments: tuple[InstrumentSpec, ...] = ()
    sleep: SleepPolicy | None = None
    engine: str | None = field(default=None, compare=False)

    def __post_init__(self) -> None:
        if self.n_jobs is not None and self.n_jobs <= 0:
            raise ValueError(f"n_jobs must be positive, got {self.n_jobs}")
        if self.sleep is not None and not isinstance(self.sleep, SleepPolicy):
            raise ValueError(
                f"sleep must be a SleepPolicy or None, got {self.sleep!r}"
            )
        if not isinstance(self.instruments, tuple):
            object.__setattr__(self, "instruments", tuple(self.instruments))
        for instrument in self.instruments:
            if not isinstance(instrument, InstrumentSpec):
                raise ValueError(
                    f"instruments must be InstrumentSpec instances, got {instrument!r}"
                )
        if self.size_factor <= 0.0:
            raise ValueError(f"size_factor must be positive, got {self.size_factor}")
        if self.scheduler not in SCHEDULERS:
            raise ValueError(
                f"unknown scheduler {self.scheduler!r}; available: {SCHEDULERS.names()}"
            )
        if self.power_model not in POWER_MODELS:
            raise ValueError(
                f"unknown power_model {self.power_model!r}; available: {POWER_MODELS.names()}"
            )
        if self.source not in WORKLOAD_SOURCES:
            raise ValueError(
                f"unknown workload source {self.source!r}; available: {WORKLOAD_SOURCES.names()}"
            )
        if self.engine is not None and self.engine not in ENGINES:
            raise ValueError(
                f"unknown engine {self.engine!r}; available: {ENGINES.names()}"
            )

    def with_policy(self, policy: PolicySpec) -> "RunSpec":
        return replace(self, policy=policy)

    def scaled(self, size_factor: float) -> "RunSpec":
        return replace(self, size_factor=size_factor)

    def sized(self, n_jobs: int) -> "RunSpec":
        """Copy with the trace length pinned to ``n_jobs``."""
        return replace(self, n_jobs=n_jobs)

    def with_instruments(self, *instruments: InstrumentSpec) -> "RunSpec":
        """Copy with these instruments attached (replacing any existing)."""
        return replace(self, instruments=tuple(instruments))

    def with_sleep(self, sleep: SleepPolicy | None) -> "RunSpec":
        """Copy with in-engine node power management set to ``sleep``."""
        return replace(self, sleep=sleep)

    def with_engine(self, engine: str | None) -> "RunSpec":
        """Copy pinned to the named engine lane (``None`` = automatic).

        Results and cache keys are unchanged: lanes are pinned
        byte-identical, and ``engine`` is excluded from spec identity.
        """
        return replace(self, engine=engine)

    def label(self) -> str:
        scale = "" if self.size_factor == 1.0 else f" x{self.size_factor:g}"
        base = f"{self.workload}{scale} {self.policy.label()}"
        if self.sleep is not None:
            base += " +" + self.sleep.label()
        if self.instruments:
            base += " +" + "+".join(spec.label() for spec in self.instruments)
        return base
