"""The runtime half of fault injection: sites, arming, delivery.

Instrumented code declares *sites* — named places that volunteer to
fail — and arms them by calling :func:`fire` (for crash / delay /
connection-reset faults) or :func:`torn_write` (for partial-persist
faults) at the moment the real operation happens.  With no plan
installed both helpers are a single module-global ``None`` check, so
the production hot path is untouched.

One injector is *ambient* per process (:func:`install` /
:func:`uninstall` / the :func:`injected` context manager) rather than
threaded through every constructor: the sites span subsystems — the
serve daemon, the batch cache, the run journal — and a chaos test wants
one plan to govern all of them at once.  Installation is process-global
and intended for tests and drills; concurrent tests must not install
competing plans (the tier-1 suite runs them in one process, serially).

Every delivered fault is appended to :attr:`FaultInjector.fired`, so a
chaos test asserts not only the observable outcome (structured error,
released quota slot, byte-identical retry) but that the fault it
scripted actually went off.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator

from contextlib import contextmanager

if TYPE_CHECKING:
    from repro.faults.plan import FaultPlan

__all__ = [
    "SITES",
    "FaultInjector",
    "FiredFault",
    "active_injector",
    "fire",
    "injected",
    "install",
    "torn_write",
    "uninstall",
]

#: The registered injection sites.  Adding a site means adding a
#: ``fire``/``torn_write`` call in real code *and* a row here — rules
#: naming unregistered sites are rejected at plan-build time, so a typo
#: fails the test loudly instead of silently never firing.
SITES = frozenset(
    {
        "worker.slice",  # serve worker: start of each budgeted run_for slice
        "cache.store",  # batch result cache: persisting one result
        # batch result cache: reading one result.  A pooled BatchRunner
        # reads entries in its worker processes, so there the site fires
        # in the worker, on the fork-time copy of the injector: its hits
        # and fired faults stay in that worker, and a crash there fails
        # the spec's task, where on_error attributes it.
        "cache.load",
        "http.read",  # serve daemon: parsing an incoming request
        "http.write",  # serve daemon: sending a response/stream chunk
        "journal.append",  # serve run journal: appending one record
    }
)


@dataclass(frozen=True)
class FiredFault:
    """One fault the injector actually delivered (for test assertions)."""

    site: str
    kind: str
    hit: int  # the 1-based arming index at which the rule fired


class FaultInjector:
    """Executes a :class:`~repro.faults.plan.FaultPlan` against live code.

    Thread-safe: sites are armed concurrently from worker threads and
    the asyncio plane.  Arrival counters are per-site and monotonic for
    the injector's lifetime, so "the Nth arming" is well-defined even
    under concurrency as long as the scripted site is only reached from
    one place (which is how the chaos matrix scripts its cells).
    """

    def __init__(self, plan: "FaultPlan") -> None:
        self.plan = plan
        self._lock = threading.Lock()
        self._hits: dict[str, int] = {}
        self._fired: list[FiredFault] = []

    # -- introspection -----------------------------------------------------------
    @property
    def fired(self) -> tuple[FiredFault, ...]:
        """Every fault delivered so far, in delivery order."""
        with self._lock:
            return tuple(self._fired)

    def hits(self, site: str) -> int:
        """How many times ``site`` has been armed."""
        with self._lock:
            return self._hits.get(site, 0)

    # -- delivery ----------------------------------------------------------------
    def _arm(self, site: str) -> tuple[int, "object | None"]:
        """Count one arrival; return (hit index, matching rule or None)."""
        if site not in SITES:
            raise ValueError(f"unregistered fault site {site!r}")
        with self._lock:
            hit = self._hits.get(site, 0) + 1
            self._hits[site] = hit
            for rule in self.plan.rules_for(site):
                if rule.covers(hit):
                    self._fired.append(FiredFault(site=site, kind=rule.kind, hit=hit))
                    return hit, rule
        return hit, None

    def fire(self, site: str) -> None:
        """Arm ``site``; deliver a crash/delay/reset fault if scripted.

        ``torn_write`` rules at a plain ``fire`` site degrade to a
        crash — the operation has no bytes to tear.
        """
        from repro.faults.plan import FaultKind, InjectedCrash

        hit, rule = self._arm(site)
        if rule is None:
            return
        if rule.kind == FaultKind.DELAY:
            time.sleep(rule.delay_seconds)
        elif rule.kind == FaultKind.CONNECTION_RESET:
            raise ConnectionResetError(
                f"injected connection reset at {site} (hit {hit})"
            )
        else:  # CRASH, or TORN_WRITE at a site with nothing to tear
            raise InjectedCrash(f"injected crash at {site} (hit {hit})")

    def torn_write(self, site: str, data: bytes) -> bytes:
        """Arm a write site; return the bytes that should reach disk.

        For a scripted ``torn_write`` rule the caller receives a prefix
        of ``data`` (``rule.fraction`` of it) and MUST persist exactly
        that prefix, then raise :class:`InjectedCrash` itself —
        mirroring a process that died between ``write`` and
        ``rename``/``fsync``.  Other kinds behave as in :meth:`fire`.
        """
        from repro.faults.plan import FaultKind, InjectedCrash

        hit, rule = self._arm(site)
        if rule is None:
            return data
        if rule.kind == FaultKind.DELAY:
            time.sleep(rule.delay_seconds)
            return data
        if rule.kind == FaultKind.CONNECTION_RESET:
            raise ConnectionResetError(
                f"injected connection reset at {site} (hit {hit})"
            )
        if rule.kind == FaultKind.TORN_WRITE:
            return data[: max(0, int(len(data) * rule.fraction))]
        raise InjectedCrash(f"injected crash at {site} (hit {hit})")


# -- the ambient injector ---------------------------------------------------------
_ACTIVE: FaultInjector | None = None
_INSTALL_LOCK = threading.Lock()


def install(plan: "FaultPlan") -> FaultInjector:
    """Install ``plan`` process-wide; returns its injector.

    Refuses to stack plans: a second install without an intervening
    :func:`uninstall` is almost always a test isolation bug.
    """
    global _ACTIVE
    with _INSTALL_LOCK:
        if _ACTIVE is not None:
            raise RuntimeError(
                "a fault plan is already installed; uninstall() it first"
            )
        _ACTIVE = FaultInjector(plan)
        return _ACTIVE


def uninstall() -> None:
    """Remove the ambient plan (idempotent)."""
    global _ACTIVE
    with _INSTALL_LOCK:
        _ACTIVE = None


def active_injector() -> FaultInjector | None:
    """The currently installed injector, if any."""
    return _ACTIVE


@contextmanager
def injected(plan: "FaultPlan") -> Iterator[FaultInjector]:
    """``with injected(plan) as injector:`` — scoped installation."""
    injector = install(plan)
    try:
        yield injector
    finally:
        uninstall()


def fire(site: str) -> None:
    """Arm ``site`` on the ambient injector (no-op when none installed)."""
    injector = _ACTIVE
    if injector is not None:
        injector.fire(site)


def torn_write(site: str, data: bytes) -> tuple[bytes, bool]:
    """Arm a write site; returns ``(bytes to persist, torn?)``.

    When ``torn`` is True the caller must persist the (truncated) bytes
    and then raise by calling the ambient injector's crash — callers use
    the pattern::

        payload, torn = faults.torn_write("journal.append", line)
        stream.write(payload)
        if torn:
            raise InjectedCrash(...)

    which this helper packages by returning the flag instead of raising
    mid-write, so the truncated bytes genuinely land first.
    """
    injector = _ACTIVE
    if injector is None:
        return data, False
    kept = injector.torn_write(site, data)
    return kept, len(kept) < len(data)
