"""Engine lanes: the simulation cores behind ``Simulation.run()``.

A *lane* is an alternative implementation of "run this spec to
completion".  Every lane is pinned byte-identical to the reference core
(the golden traces and the lane-vs-lane differentials enforce it), so
which lane executes a run is pure execution metadata: it never enters
the canonical spec JSON or the cache key, and cached/served results are
shared across lanes.

Two lanes ship:

``reference``
    The event-driven :class:`~repro.scheduling.base.Scheduler` core —
    the semantics everything else is verified against.

``columnar``
    A fused, allocation-light EASY/FCFS core
    (:mod:`repro.sim.columnar`) holding job state in preallocated numpy
    arrays and batching event runs between scheduler decision points.
    Configurations it does not cover (validate or sanitize mode, sleep
    policies, boost, timelines, the conservative scheduler, policy kinds
    beyond the bundled four, an empty trace) and a missing numpy fall
    back to the reference core transparently — the results are
    identical either way; :func:`~repro.sim.columnar.fallback_reason`
    names the reason.

A :class:`~repro.session.SimulationSession` — and through it every
instrumented ``run()`` and every served run — chooses between the same
two cores with the same pins, and also runs on the fused core when its
instruments only observe.

The lane is chosen automatically: ``columnar`` whenever numpy is
importable, ``reference`` otherwise.  Two pins override that choice —
``spec.engine`` (lane-differential tests, golden twins and the
benchmark) and then the ``REPRO_ENGINE`` environment variable (CI runs
the whole suite on the reference core with it).
"""

from __future__ import annotations

import os
from typing import TYPE_CHECKING

from repro.registry import ENGINES

try:  # numpy is an optional accelerator, never a hard dependency
    import numpy  # noqa: F401
except ImportError:  # pragma: no cover - exercised only without numpy
    _AUTOMATIC = "reference"
else:
    _AUTOMATIC = "columnar"

if TYPE_CHECKING:  # imported for annotations only; avoids package cycles
    from repro.api import Simulation
    from repro.experiments.config import RunSpec
    from repro.scheduling.result import SimulationResult

__all__ = ["ENGINE_ENV", "EngineLane", "engine_pin", "resolve_engine_name"]

#: Environment variable pinning the process-wide lane (CI uses it to
#: drive the whole suite through the reference core).
ENGINE_ENV = "REPRO_ENGINE"


class EngineLane:
    """Base lane: run a materialised :class:`~repro.api.Simulation`."""

    name = "abstract"

    def run(self, simulation: Simulation) -> SimulationResult:
        raise NotImplementedError


class ReferenceLane(EngineLane):
    """The event-driven reference core."""

    name = "reference"

    def run(self, simulation: Simulation) -> SimulationResult:
        return simulation.build_scheduler().run(simulation.jobs)


class ColumnarLane(EngineLane):
    """The fused columnar core, falling back to the reference core."""

    name = "columnar"

    def run(self, simulation: Simulation) -> SimulationResult:
        from repro.sim.columnar import try_run_columnar

        result = try_run_columnar(simulation)
        if result is not None:
            return result
        # Configurations outside the fused core's coverage (and runs
        # without numpy) execute on the reference core — byte-identical
        # by the lane contract.
        return _REFERENCE.run(simulation)


#: Registered as instances: a lane is stateless, so one object serves
#: every run, and lookups return something immediately runnable.
_REFERENCE = ReferenceLane()
ENGINES.add("reference", _REFERENCE)
ENGINES.add("columnar", ColumnarLane())


def engine_pin(spec: RunSpec) -> str | None:
    """The lane ``spec`` is pinned to: its own pin, else ``REPRO_ENGINE``."""
    if spec.engine is not None:
        return spec.engine
    return os.environ.get(ENGINE_ENV) or None


def resolve_engine_name(spec: RunSpec) -> str:
    """The lane ``spec`` runs on: its pin, else ``REPRO_ENGINE``, else automatic."""
    return engine_pin(spec) or _AUTOMATIC
