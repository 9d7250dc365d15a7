"""Crash-safe file replacement, shared by every on-disk store.

The result cache (:mod:`repro.batch`), the workload cache
(:mod:`repro.workloads.cache`) and the serve run journal
(:mod:`repro.serve.journal`) all rewrite whole files that concurrent
readers may open at any moment.  :func:`write_atomic` is their one
write path: the bytes land in a temp sibling that is then renamed over
the target, so a reader sees the old file or the new one, never a torn
one, and a failed write leaves no temp file behind.
"""

from __future__ import annotations

import itertools
import os
from pathlib import Path
from typing import BinaryIO, Callable

__all__ = ["write_atomic"]

#: Monotonic per-process token stream for temp names.  Keying the temp
#: file by pid alone is not enough: two threads of one process writing
#: the same target would share a temp path and tear each other's rename.
_TEMP_TOKENS = itertools.count()


def write_atomic(path: Path, write: Callable[[BinaryIO], object]) -> None:
    """Replace ``path`` with what ``write`` puts into a binary stream.

    The stream is a temp sibling named ``<stem>.tmp.<pid>.<token>``,
    unique per write even across threads of one process, renamed over
    ``path`` once ``write`` returns.  On any failure the temp is
    unlinked and the error re-raised; callers for which the write is
    best-effort catch it themselves.
    """
    temp = path.with_suffix(f".tmp.{os.getpid()}.{next(_TEMP_TOKENS)}")
    try:
        with open(temp, "wb") as stream:
            write(stream)
        os.replace(temp, path)
    except BaseException:
        try:
            os.unlink(temp)
        except OSError:
            pass
        raise
