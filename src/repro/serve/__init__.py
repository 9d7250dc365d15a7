"""Simulation as a service: the ``repro serve`` daemon and its client.

The package turns runs into requests: :class:`~repro.serve.server.ReproServer`
is an asyncio HTTP/JSON front door that validates submitted
:class:`~repro.experiments.config.RunSpec` documents through the exact
codecs in :mod:`repro.serialize`, executes many concurrent
:class:`~repro.session.SimulationSession` runs in a pool of simulation
worker processes (:mod:`~repro.serve.worker`), streams instrument
telemetry (the typed lifecycle events of
:mod:`repro.sim.events`) as NDJSON/SSE, and shares the on-disk result
cache across clients with single-flight dedup — identical cache-keyed
specs submitted concurrently run exactly once.

:mod:`~repro.serve.protocol` pins the wire schema (error payloads,
job states, the telemetry row format); :mod:`~repro.serve.quotas`
enforces per-client admission control; :mod:`~repro.serve.client`
is the thin blocking client the ``repro submit``/``repro status``
CLI verbs ride on.
"""

from repro.serve.client import ServeClient
from repro.serve.protocol import PROTOCOL_VERSION, ServeError
from repro.serve.quotas import QuotaLedger, QuotaPolicy
from repro.serve.server import ReproServer

__all__ = [
    "PROTOCOL_VERSION",
    "QuotaLedger",
    "QuotaPolicy",
    "ReproServer",
    "ServeClient",
    "ServeError",
]
