"""Processor pool: count-only bookkeeping of free processors.

The paper uses First Fit as the resource-selection policy inside Alvio:
a job takes the lowest-numbered free processors.  With no topology
constraints the chosen identities cannot change schedulability, energy
or BSLD, so the pool tracks only how many processors are free — O(1)
per allocation.
"""

from __future__ import annotations

__all__ = ["ProcessorPool"]


class ProcessorPool:
    """Tracks how many processors are free on a machine."""

    def __init__(self, total_cpus: int) -> None:
        if total_cpus <= 0:
            raise ValueError(f"pool needs at least 1 CPU, got {total_cpus}")
        self._total = total_cpus
        self._free = total_cpus

    # -- introspection -------------------------------------------------------
    @property
    def total_cpus(self) -> int:
        return self._total

    @property
    def free_cpus(self) -> int:
        return self._free

    @property
    def busy_cpus(self) -> int:
        return self._total - self._free

    def fits(self, size: int) -> bool:
        return 0 < size <= self._free

    # -- allocation ----------------------------------------------------------
    def allocate(self, size: int) -> None:
        """Grant ``size`` processors.

        Raises ``ValueError`` when the request cannot be satisfied; the
        scheduler is expected to have checked :meth:`fits` first.
        """
        if size <= 0:
            raise ValueError(f"allocation size must be positive, got {size}")
        if size > self._free:
            raise ValueError(f"requested {size} CPUs but only {self._free} are free")
        self._free -= size

    def release(self, size: int) -> None:
        """Return ``size`` processors to the pool."""
        if self._free + size > self._total:
            raise ValueError(
                f"releasing {size} CPUs would exceed the pool total "
                f"({self._free} free of {self._total})"
            )
        self._free += size
