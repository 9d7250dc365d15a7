"""Utilisation-triggered DVFS comparator (related-work style policy).

Fan et al. (ISCA'07) investigate triggering DVFS from CPU utilisation in
warehouse-scale clusters.  This policy transplants that idea into the
parallel-job-scheduling setting as an ablation comparator for the
BSLD-threshold policy: when the machine is mostly idle, newly started
jobs are reduced; under high utilisation everything runs at ``Ftop``.
It ignores per-job performance entirely, which is exactly the weakness
the paper's predicted-BSLD gate addresses.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

from repro.core.frequency_policy import FrequencyPolicy

if TYPE_CHECKING:  # imported for annotations only; avoids package cycles
    from repro.scheduling.job import Job

__all__ = ["UtilizationTriggeredPolicy"]


class UtilizationTriggeredPolicy(FrequencyPolicy):
    """Pick a gear from current machine utilisation via a step mapping.

    Parameters
    ----------
    steps:
        Ordered ``(utilization_upper_bound, gear_index_from_lowest)``
        pairs.  The first entry whose bound exceeds the current
        utilisation decides the gear index into the machine's ladder
        (clamped to the ladder length).  The default maps <40% to the
        lowest gear, <60% to a middle gear and anything busier to Ftop.
    """

    def __init__(self, steps: tuple[tuple[float, int], ...] = ((0.4, 0), (0.6, 3))) -> None:
        bounds = [b for b, _ in steps]
        # Strictly ascending: a duplicate bound would silently
        # dead-letter every later step sharing it (the first match
        # always wins in the lookup below).
        if any(a >= b for a, b in zip(bounds, bounds[1:], strict=False)):
            raise ValueError(
                f"utilisation bounds must be strictly ascending, got {bounds}"
            )
        if any(not 0.0 <= b <= 1.0 for b in bounds):
            raise ValueError(f"utilisation bounds must lie in [0, 1], got {bounds}")
        if any(i < 0 for _, i in steps):
            raise ValueError("gear indices must be non-negative")
        self._steps = tuple(steps)

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
        index = top
        for bound, step in self._steps:
            if utilization < bound:
                index = step if step < top else top
                break
        # Fall back towards Ftop: a shorter (faster) run is easier to
        # fit, and the first feasible gear at or above the mapped one is
        # the suffix's start.
        if index < lowest_feasible:
            index = lowest_feasible
        if index <= top:
            return index
        return top if must_schedule else -1

    def describe(self) -> str:
        parts = ", ".join(f"<{b:g}->g{i}" for b, i in self._steps)
        return f"UtilizationTriggered({parts})"
