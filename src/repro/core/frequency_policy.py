"""CPU-frequency assignment policies (the paper's core contribution).

A frequency policy answers one question for the job scheduler: *at
which gear should this job be scheduled, if at all?*  Every scheduler
and both engine cores ask it through one scalar call::

    policy.select(job, wait, wq_size, utilization, must_schedule,
                  lowest_feasible=0, wait_for=None) -> int

The answer is an index into the machine's ascending gear ladder
(``GearSet.ascending()``, ``Flowest`` first), or ``-1`` to skip the job
in this pass.  The arguments are everything Figures 1-2 of the paper
consult:

* ``wait`` — the candidate's prospective wait time at ``Ftop`` (``WT``
  of Eq. 2);
* ``wq_size`` — jobs waiting on execution, *excluding* the candidate;
* ``utilization`` — fraction of machine CPUs busy right now (read by the
  utilisation-triggered comparator);
* ``must_schedule`` — True for the queue head (``MakeJobReservation``),
  which must always get a gear; False for a backfill candidate
  (``BackfillJob``), which may be skipped;
* ``lowest_feasible`` — the scheduler's admission test, as an index;
* ``wait_for`` — the wait at each ladder index, for schedulers whose
  start time depends on the gear.

**The suffix rule.**  A slower gear only stretches a job: the β time
coefficient is non-increasing along the ascending ladder.  So the gears
at which a candidate passes a "fits in time" admission test always form
a suffix of the ladder, and feasibility is one index: gears at
``lowest_feasible`` and above are admissible, and a value of
``len(ladder)`` admits none.  In a may-skip decision a policy must not
return an index below it; schedulers rely on that to prune candidates
no gear can admit.  EASY backfilling computes the index with
:func:`~repro.scheduling.easy.lowest_feasible`; queue heads, FCFS and
conservative backfilling pass 0.

**Gear-dependent waits.**  Under EASY the start does not depend on the
gear, so ``wait`` holds at every gear.  Under conservative backfilling
a longer (slower) job may only fit into a later hole; such a scheduler
passes ``wait_for(index) -> float``, and ``wait`` is then
``wait_for(top)``.  A slower gear never starts earlier.

The policy is deliberately scheduler-agnostic: the same object plugs
into EASY backfilling, plain FCFS and conservative backfilling, and
into both engine cores, which is exactly the portability claim of the
paper ("the frequency scaling algorithm can be applied with any
parallel job scheduling policy").
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import TYPE_CHECKING, Callable

from repro.core.gears import Gear, GearSet
from repro.metrics.bsld import BSLD_THRESHOLD_SECONDS, predicted_bsld

if TYPE_CHECKING:  # imported for annotations only; avoids package cycles
    from repro.power.time_model import BetaTimeModel
    from repro.scheduling.job import Job

__all__ = [
    "FrequencyPolicy",
    "FixedGearPolicy",
    "BsldThresholdPolicy",
    "GearCappedPolicy",
    "NO_WQ_LIMIT",
]

#: Sentinel for the paper's "WQ size NO LIMIT" configuration.
NO_WQ_LIMIT: int | None = None


class FrequencyPolicy(ABC):
    """Base class; concrete policies implement :meth:`select`."""

    def bind(self, gears: GearSet, time_model: BetaTimeModel) -> None:
        """Attach machine facts; called once by the scheduler."""
        self._gears = gears
        self._time_model = time_model
        self._top = len(gears) - 1  # Ftop's index on the ascending ladder

    @property
    def gears(self) -> GearSet:
        return self._gears

    @property
    def time_model(self) -> BetaTimeModel:
        return self._time_model

    @abstractmethod
    def select(
        self,
        job: Job,
        wait: float,
        wq_size: int,
        utilization: float,
        must_schedule: bool,
        lowest_feasible: int = 0,
        wait_for: Callable[[int], float] | None = None,
    ) -> int:
        """The ladder index to schedule ``job`` at, or ``-1`` to skip it."""

    def describe(self) -> str:
        return type(self).__name__

    @property
    def applies_dvfs(self) -> bool:
        """Whether this policy can ever pick a non-top gear."""
        return True


class FixedGearPolicy(FrequencyPolicy):
    """Every job runs at one fixed gear.

    With the default (top gear) this is the paper's no-DVFS baseline;
    pinning a lower gear gives the naive "slow everything down"
    strawman that motivates BSLD-aware selection.
    """

    def __init__(self, frequency: float | None = None) -> None:
        self._frequency = frequency

    def bind(self, gears: GearSet, time_model: BetaTimeModel) -> None:
        super().bind(gears, time_model)
        gear = gears.top if self._frequency is None else gears.by_frequency(self._frequency)
        self._index = gears.index(gear)

    def select(
        self,
        job: Job,
        wait: float,
        wq_size: int,
        utilization: float,
        must_schedule: bool,
        lowest_feasible: int = 0,
        wait_for: Callable[[int], float] | None = None,
    ) -> int:
        index = self._index
        return index if index >= lowest_feasible else -1

    def describe(self) -> str:
        label = "top" if self._frequency is None else f"{self._frequency:g}GHz"
        return f"FixedGear({label})"

    @property
    def applies_dvfs(self) -> bool:
        return self._frequency is not None


class BsldThresholdPolicy(FrequencyPolicy):
    """The paper's two-threshold frequency-assignment algorithm.

    Scan gears from ``Flowest`` to ``Ftop`` (Figures 1-2) and pick the
    first feasible gear whose *predicted BSLD* (Eq. 2) stays below
    ``bsld_threshold`` — but only when at most ``wq_threshold`` other
    jobs are waiting; otherwise go straight to ``Ftop``.

    Parameters
    ----------
    bsld_threshold:
        Maximum tolerated predicted bounded slowdown (paper: 1.5/2/3).
    wq_threshold:
        Maximum wait-queue size (excluding the candidate) for which
        frequency reduction is attempted; ``NO_WQ_LIMIT`` (None)
        removes the restriction (paper: 0/4/16/NO LIMIT).
    bsld_time_threshold:
        ``Th`` of the BSLD formulas (600 s in the paper).
    strict_top_backfill:
        Figure 2 read literally demands ``satisfiesBSLD`` even at
        ``Ftop`` before backfilling a job.  The default ``False``
        applies the check only to *reduced* gears, which Table 3 of the
        paper shows is the behaviour actually evaluated (SDSC's WQ0
        wait matching its no-DVFS wait requires unconditional Ftop
        backfills); set ``True`` for the literal pseudocode.
    """

    def __init__(
        self,
        bsld_threshold: float = 2.0,
        wq_threshold: int | None = NO_WQ_LIMIT,
        bsld_time_threshold: float = BSLD_THRESHOLD_SECONDS,
        strict_top_backfill: bool = False,
    ) -> None:
        if bsld_threshold < 1.0:
            raise ValueError(
                f"bsld_threshold below 1 can never be met (BSLD >= 1), got {bsld_threshold}"
            )
        if wq_threshold is not None and wq_threshold < 0:
            raise ValueError(f"wq_threshold must be >= 0 or None, got {wq_threshold}")
        self.bsld_threshold = bsld_threshold
        self.wq_threshold = wq_threshold
        self.bsld_time_threshold = bsld_time_threshold
        self.strict_top_backfill = strict_top_backfill

    def bind(self, gears: GearSet, time_model: BetaTimeModel) -> None:
        super().bind(gears, time_model)
        # The default-β coefficient of every gear, resolved once instead
        # of per decision.
        self._frequencies = gears.frequencies
        self._default_coefs = time_model.coefficients(self._frequencies)

    # -- the algorithm of Figures 1 and 2 ------------------------------------
    def select(
        self,
        job: Job,
        wait: float,
        wq_size: int,
        utilization: float,
        must_schedule: bool,
        lowest_feasible: int = 0,
        wait_for: Callable[[int], float] | None = None,
    ) -> int:
        top = self._top
        requested = job.requested_time
        time_threshold = self.bsld_time_threshold
        denominator = time_threshold if time_threshold > requested else requested
        bsld_threshold = self.bsld_threshold
        check_top = self.strict_top_backfill and not must_schedule
        wq_threshold = self.wq_threshold
        if wq_threshold is not None and wq_size > wq_threshold:
            start = top  # too many jobs waiting: Ftop only
        else:
            # Predicted BSLD is monotone non-increasing in frequency (the
            # coefficient shrinks to exactly 1 at Ftop, and a shorter job
            # never starts later), so if even Ftop misses the threshold no
            # reduced gear can pass — the whole ladder walk collapses to
            # the loop's top-gear outcome.
            bsld_top = (wait + requested) / denominator
            if bsld_top >= bsld_threshold and bsld_top >= 1.0:
                if not check_top and lowest_feasible <= top:
                    return top
                return top if must_schedule else -1
            start = 0
        if lowest_feasible > start:
            start = lowest_feasible
        beta = job.beta
        if beta is None:
            coefs = self._default_coefs
        else:
            coefs = self._time_model.coefficients(self._frequencies, beta)
        for index in range(start, top + 1):
            if index == top and not check_top:
                return top
            if wait_for is not None:
                wait = wait_for(index)
            # Inline Eq. (2): job validation guarantees requested > 0, so
            # the denominator is always positive here (predict() keeps
            # the fully-validated scalar path for external callers).
            bsld = (wait + requested * coefs[index]) / denominator
            if bsld < 1.0:
                bsld = 1.0
            if bsld < bsld_threshold:
                return index
        # The queue head must hold a reservation even when no gear
        # satisfies the threshold; EASY admission wins over DVFS.
        return top if must_schedule else -1

    def predict(self, job: Job, gear: Gear, wait_time: float) -> float:
        """Eq. (2) for this job at this gear under ``wait_time``."""
        coefficient = self.time_model.coefficient(gear.frequency, job.beta)
        return predicted_bsld(
            wait_time=wait_time,
            requested_time=job.requested_time,
            coefficient=coefficient,
            threshold=self.bsld_time_threshold,
        )

    def describe(self) -> str:
        wq = "NO" if self.wq_threshold is None else str(self.wq_threshold)
        extra = ", strict" if self.strict_top_backfill else ""
        return f"BSLDthreshold={self.bsld_threshold:g}, WQthreshold={wq}{extra}"


class GearCappedPolicy(FrequencyPolicy):
    """Clamp another policy's selections to gears at or below a frequency.

    The runtime-control wrapper behind
    :meth:`~repro.scheduling.base.Scheduler.set_gear_cap` (and the
    ``power_cap`` instrument): the inner policy decides as usual, and
    any selection above ``max_frequency`` is stepped down to the
    highest capped gear, if the admission test still allows it.  A
    backfill candidate whose capped (longer-running) variant no longer
    fits is skipped; the queue head always schedules at the capped
    gear, mirroring the EASY admission-over-DVFS rule.

    A cap below the machine's lowest frequency clamps to the lowest
    gear — a simulation can never refuse to run jobs outright.
    """

    def __init__(self, inner: FrequencyPolicy, max_frequency: float) -> None:
        if max_frequency <= 0.0:
            raise ValueError(f"max_frequency must be positive, got {max_frequency}")
        self._inner = inner
        self._max_frequency = max_frequency

    @property
    def inner(self) -> FrequencyPolicy:
        return self._inner

    @property
    def max_frequency(self) -> float:
        return self._max_frequency

    def bind(self, gears: GearSet, time_model: BetaTimeModel) -> None:
        super().bind(gears, time_model)
        self._inner.bind(gears, time_model)
        eligible = [i for i, g in enumerate(gears) if g.frequency <= self._max_frequency]
        self._cap = eligible[-1] if eligible else 0

    def select(
        self,
        job: Job,
        wait: float,
        wq_size: int,
        utilization: float,
        must_schedule: bool,
        lowest_feasible: int = 0,
        wait_for: Callable[[int], float] | None = None,
    ) -> int:
        index = self._inner.select(
            job, wait, wq_size, utilization, must_schedule, lowest_feasible, wait_for
        )
        cap = self._cap
        if index <= cap:
            return index
        if must_schedule or cap >= lowest_feasible:
            return cap
        return -1

    def describe(self) -> str:
        return f"{self._inner.describe()} | cap<={self._max_frequency:g}GHz"
