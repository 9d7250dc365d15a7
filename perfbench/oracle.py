"""Expected outputs: the sha256 of each spec's canonical result bytes.

Digests are keyed by :func:`repro.serialize.spec_key`, which already
covers the workload, trace length, seed and policy, so one flat map
serves every workload and every seed.  The default seed's digests are
committed (``digests.json``); any other seed's are computed once on the
reference lane, outside a timed window, and memoised under ``out/``.

This module imports nothing from the package under test, so ``run.py``
can check outputs without loading it.
"""

from __future__ import annotations

import functools
import json
import os
from pathlib import Path

HERE = Path(__file__).resolve().parent
COMMITTED = HERE / "digests.json"
OUT = HERE / "out"
MEMO = OUT / "digests"
STASH = OUT / "stash"
TMP = OUT / "tmp"


@functools.cache
def committed() -> dict[str, str]:
    """The committed default-seed digests (``{}`` before they exist)."""
    try:
        with open(COMMITTED, encoding="utf-8") as stream:
            return dict(json.load(stream)["digests"])
    except FileNotFoundError:
        return {}


def expected(key: str) -> str | None:
    """The recorded digest for ``key``: committed first, then memoised."""
    digest = committed().get(key)
    if digest is not None:
        return digest
    try:
        return (MEMO / key).read_text(encoding="ascii").strip()
    except FileNotFoundError:
        return None


def remember(key: str, digest: str) -> None:
    """Memoise a freshly computed digest (write-then-rename)."""
    if key in committed():
        return
    MEMO.mkdir(parents=True, exist_ok=True)
    temp = MEMO / f".{key}.{os.getpid()}"
    temp.write_text(digest + "\n", encoding="ascii")
    os.replace(temp, MEMO / key)


def write_committed(seed: int, digests: dict[str, str]) -> None:
    """Replace ``digests.json`` with the default seed's digests."""
    with open(COMMITTED, "w", encoding="utf-8") as stream:
        json.dump({"seed": seed, "digests": dict(sorted(digests.items()))}, stream, indent=1)
        stream.write("\n")


def stash_dir(seed: int, jobs_cap: int | None) -> Path:
    """Where the sweep-cached stash for one seed (and scale) lives."""
    return STASH / f"seed{seed}-cap{jobs_cap or 'none'}"
