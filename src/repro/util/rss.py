"""This process's resident set: the one reader every memory bound uses.

The run budget (:class:`repro.experiments.budget.BudgetGuard`) and the
construction cache (:mod:`repro.util.cache`) both bound the *current*
resident set, read from ``/proc/self/statm``.  The file is opened by path
on every call, so a forked sweep worker reads its own process: a
descriptor kept open across ``fork`` would go on reading the parent's.
"""

from __future__ import annotations

import mmap

_PROC_STATM = "/proc/self/statm"


def resident_bytes() -> int | None:
    """This process's current resident set in bytes, or ``None`` where
    there is no procfs to read it from."""
    try:
        with open(_PROC_STATM, "rb", buffering=0) as statm:
            return int(statm.read().split()[1]) * mmap.PAGESIZE
    except (OSError, ValueError, IndexError):
        return None
