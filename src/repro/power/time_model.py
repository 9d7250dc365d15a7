"""The β execution-time model (Eq. 5 of the paper).

Frequency scaling stretches a job's execution time according to

    T(f) / T(fmax) = beta * (fmax / f - 1) + 1

``beta = 1`` means the job is perfectly CPU bound (halving the frequency
doubles the runtime); ``beta = 0`` means the runtime is insensitive to
CPU frequency (fully memory/communication bound).  The paper uses a
global ``beta = 0.5`` based on the measurements of Freeh et al.; this
module also supports per-job β values, which the paper lists as future
work.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.core.gears import Gear, GearSet

__all__ = ["BetaTimeModel", "DEFAULT_BETA", "PAPER_BETA"]

#: β assumed by the paper for every job (§4, from Freeh et al. 2007).
PAPER_BETA = 0.5
DEFAULT_BETA = PAPER_BETA


@dataclass(frozen=True)
class BetaTimeModel:
    """Time-penalty model parameterised by the top (nominal) frequency.

    Parameters
    ----------
    fmax:
        The nominal frequency in GHz at which trace runtimes were
        recorded (``Ftop`` of the machine's gear set).
    beta:
        Default CPU-boundedness coefficient in ``[0, 1]`` used when a
        job does not carry its own β.
    """

    fmax: float
    beta: float = DEFAULT_BETA

    def __post_init__(self) -> None:
        if self.fmax <= 0.0:
            raise ValueError(f"fmax must be positive, got {self.fmax}")
        if not 0.0 <= self.beta <= 1.0:
            raise ValueError(f"beta must be in [0, 1], got {self.beta}")
        # Per-instance coefficient memo.  Schedulers evaluate the same
        # handful of (frequency, beta) pairs hundreds of thousands of
        # times per run; caching turns each into one dict lookup.  Not a
        # dataclass field, so equality/hash/repr stay value-based.
        object.__setattr__(self, "_memo", {})

    @classmethod
    def for_gear_set(cls, gears: GearSet, beta: float = DEFAULT_BETA) -> "BetaTimeModel":
        """Build a model whose ``fmax`` is the gear set's top frequency."""
        return cls(fmax=gears.top.frequency, beta=beta)

    # -- core relations ------------------------------------------------------
    def coefficient(self, frequency: float, beta: float | None = None) -> float:
        """``Coef(f) = beta * (fmax/f - 1) + 1`` (the paper's time penalty).

        ``Coef(fmax) == 1`` exactly; lower frequencies give larger
        coefficients.  Frequencies above ``fmax`` are permitted and give
        coefficients below 1 (overclocking), which the dynamic-boost
        extension never uses but the formula supports.
        """
        memo: dict[tuple[float, float | None], float] = self._memo  # type: ignore[attr-defined]
        cached = memo.get((frequency, beta))
        if cached is not None:
            return cached
        if frequency <= 0.0:
            raise ValueError(f"frequency must be positive, got {frequency}")
        b = self.beta if beta is None else beta
        if not 0.0 <= b <= 1.0:
            raise ValueError(f"beta must be in [0, 1], got {b}")
        value = b * (self.fmax / frequency - 1.0) + 1.0
        memo[(frequency, beta)] = value
        return value

    def coefficients(
        self, frequencies: Sequence[float], beta: float | None = None
    ) -> tuple[float, ...]:
        """:meth:`coefficient` at each of ``frequencies``, in order.

        Along an ascending gear ladder the result is non-increasing —
        the suffix rule frequency policies and admission tests rely on.
        """
        coefficient = self.coefficient
        return tuple(coefficient(frequency, beta) for frequency in frequencies)

    def coefficient_for(self, gear: Gear, beta: float | None = None) -> float:
        return self.coefficient(gear.frequency, beta)

    def scaled_time(
        self, time_at_fmax: float, frequency: float, beta: float | None = None
    ) -> float:
        """Runtime at ``frequency`` of a job that takes ``time_at_fmax`` at fmax."""
        if time_at_fmax < 0.0:
            raise ValueError(f"time must be non-negative, got {time_at_fmax}")
        return time_at_fmax * self.coefficient(frequency, beta)

    def unscaled_time(
        self, time_at_f: float, frequency: float, beta: float | None = None
    ) -> float:
        """Inverse of :meth:`scaled_time`: recover the fmax-runtime."""
        if time_at_f < 0.0:
            raise ValueError(f"time must be non-negative, got {time_at_f}")
        return time_at_f / self.coefficient(frequency, beta)

    def slowdown_at(self, frequency: float, beta: float | None = None) -> float:
        """Relative runtime increase at ``frequency`` (``Coef(f) - 1``)."""
        return self.coefficient(frequency, beta) - 1.0

    def remaining_time_after_switch(
        self,
        remaining_at_old: float,
        old_frequency: float,
        new_frequency: float,
        beta: float | None = None,
    ) -> float:
        """Remaining wall-clock time after a mid-run frequency switch.

        Used by the dynamic-boost extension: a job with
        ``remaining_at_old`` seconds left while running at
        ``old_frequency`` has ``remaining * Coef(new)/Coef(old)`` seconds
        left once switched to ``new_frequency`` (work remaining is
        frequency-invariant under the linear β model).
        """
        if remaining_at_old < 0.0:
            raise ValueError(f"remaining time must be non-negative, got {remaining_at_old}")
        old_c = self.coefficient(old_frequency, beta)
        new_c = self.coefficient(new_frequency, beta)
        return remaining_at_old * (new_c / old_c)
