"""String-keyed component registries — the single source of dispatch.

Every pluggable component family (schedulers, frequency-policy kinds,
power models, workload sources, figure and ablation builders) registers
itself here by name with a decorator::

    from repro.registry import SCHEDULERS

    @SCHEDULERS.register("easy")
    class EasyBackfilling(Scheduler):
        ...

Lookups go through :meth:`Registry.get`, which imports the default
implementation modules lazily on first access, so importing this module
is cheap and free of cycles.  Adding a new scheduler/policy/model is
one decorated definition — no dispatch table anywhere else needs
editing; :class:`~repro.api.Simulation` and the CLI pick the new name
up automatically.
"""

from __future__ import annotations

import importlib
from typing import Any, Callable, Generic, Iterator, Sequence, TypeVar

__all__ = [
    "Registry",
    "RegistryError",
    "SCHEDULERS",
    "POLICIES",
    "POWER_MODELS",
    "WORKLOAD_SOURCES",
    "INSTRUMENTS",
    "SLEEP_POLICIES",
    "ENGINES",
    "FIGURES",
    "ABLATIONS",
]

T = TypeVar("T")


class RegistryError(KeyError):
    """A registry lookup or registration failed (unknown or duplicate key)."""

    def __init__(self, message: str) -> None:
        super().__init__(message)
        self.message = message

    def __str__(self) -> str:  # KeyError would repr() the message
        return self.message


class Registry(Generic[T]):
    """An ordered, string-keyed collection of components of one kind.

    Parameters
    ----------
    kind:
        Human-readable component-family name, used in error messages
        (``"scheduler"``, ``"power model"``, ...).
    modules:
        Modules holding the default registrations.  They are imported
        lazily on the first lookup, so the registry itself stays
        import-cycle free; registrations run as a side effect of the
        import.
    """

    def __init__(self, kind: str, *, modules: Sequence[str] = ()) -> None:
        self._kind = kind
        self._modules = tuple(modules)
        self._loaded = not self._modules
        self._loading = False
        self._entries: dict[str, T] = {}

    @property
    def kind(self) -> str:
        return self._kind

    # -- registration -----------------------------------------------------------
    def register(self, name: str, *, overwrite: bool = False) -> Callable[[T], T]:
        """Decorator: register the decorated object under ``name``."""

        def decorator(obj: T) -> T:
            self.add(name, obj, overwrite=overwrite)
            return obj

        return decorator

    def add(self, name: str, obj: T, *, overwrite: bool = False) -> None:
        """Imperative registration (the decorator's workhorse)."""
        if not isinstance(name, str) or not name:
            raise ValueError(
                f"{self._kind} registry keys must be non-empty strings, got {name!r}"
            )
        if not overwrite and name in self._entries:
            raise RegistryError(
                f"duplicate {self._kind} name {name!r}: already registered as "
                f"{self._entries[name]!r}"
            )
        self._entries[name] = obj

    # -- lookup ------------------------------------------------------------------
    def get(self, name: str) -> T:
        """Return the component registered under ``name``.

        Raises :class:`RegistryError` (a :class:`KeyError`) listing the
        known names when ``name`` is not registered.
        """
        self._ensure_loaded()
        try:
            return self._entries[name]
        except KeyError:
            raise RegistryError(
                f"unknown {self._kind} {name!r}; available: {', '.join(self.names())}"
            ) from None

    def names(self) -> tuple[str, ...]:
        """All registered names, sorted."""
        self._ensure_loaded()
        return tuple(sorted(self._entries))

    def items(self) -> tuple[tuple[str, T], ...]:
        self._ensure_loaded()
        return tuple(sorted(self._entries.items()))

    def __contains__(self, name: object) -> bool:
        self._ensure_loaded()
        return name in self._entries

    def __iter__(self) -> Iterator[str]:
        return iter(self.names())

    def __len__(self) -> int:
        self._ensure_loaded()
        return len(self._entries)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "loaded" if self._loaded else "lazy"
        return f"Registry({self._kind!r}, {len(self._entries)} entries, {state})"

    def _ensure_loaded(self) -> None:
        if self._loaded or self._loading:
            return  # _loading guards the re-entrant lookups the imports trigger
        self._loading = True
        try:
            for module in self._modules:
                importlib.import_module(module)
        finally:
            self._loading = False
        # Only flag success here: a failed import propagates now and is
        # retried on the next lookup instead of leaving a half-empty
        # registry that reports components as unknown.
        self._loaded = True


#: Scheduler classes (``Scheduler`` subclasses), keyed by CLI name.
SCHEDULERS: Registry[type[Any]] = Registry(
    "scheduler",
    modules=(
        "repro.scheduling.easy",
        "repro.scheduling.fcfs",
        "repro.scheduling.conservative",
    ),
)

#: Frequency-policy builders ``(PolicySpec) -> FrequencyPolicy``, keyed by kind.
POLICIES: Registry[Callable[..., Any]] = Registry(
    "frequency policy", modules=("repro.experiments.config",)
)

#: Power-model factories ``(GearSet) -> PowerModel``.
POWER_MODELS: Registry[Callable[..., Any]] = Registry(
    "power model", modules=("repro.power.model",)
)

#: Workload sources ``(workload, n_jobs, seed) -> WorkloadBundle``.
WORKLOAD_SOURCES: Registry[Callable[..., Any]] = Registry(
    "workload source", modules=("repro.workloads.sources",)
)

#: Session instruments (``Instrument`` subclasses), keyed by spec name.
INSTRUMENTS: Registry[type[Any]] = Registry(
    "instrument", modules=("repro.instruments",)
)

#: Named sleep-policy presets ``() -> SleepPolicy`` (in-engine node power-down).
SLEEP_POLICIES: Registry[Callable[..., Any]] = Registry(
    "sleep policy", modules=("repro.cluster.power",)
)

#: Engine lanes (``EngineLane`` instances): alternative simulation cores,
#: looked up when a run starts (:mod:`repro.sim.lanes` picks the lane).
#: Lane choice never changes results or cache keys — every lane is
#: pinned byte-identical to the reference core.
ENGINES: Registry[Any] = Registry("engine", modules=("repro.sim.lanes",))

#: Paper-figure builders ``(ExperimentRunner) -> figure``, keyed by number.
FIGURES: Registry[Callable[..., Any]] = Registry(
    "figure", modules=("repro.experiments.figures",)
)

#: Ablation-study builders ``(ExperimentRunner, **kwargs) -> ablation``.
ABLATIONS: Registry[Callable[..., Any]] = Registry(
    "ablation", modules=("repro.experiments.ablations",)
)
