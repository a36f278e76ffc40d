"""One process-wide LRU for memoised construction, bounded by the resident set.

Several layers build identical immutable state over and over — the same
overlay graph for every experiment that shares a ``(family, n, graph,
seed)`` cell, the same Pastry ring/leaf-set/routing-table structure for
every scenario experiment at one scale, the same neighbor digit matrices
for every run over one overlay.  :func:`get_or_build` memoises all of them
in one least-recently-used order: pure functions of their keys, immutable
values, and one bound, :data:`CACHE_BYTES`, on this process's resident set.

The bound is measured, not estimated: after each insert,
:func:`make_room` drops least-recently-used values other than the new one,
reading the resident set (:func:`repro.util.rss.resident_bytes`) again
after each drop, until it is at most :data:`CACHE_BYTES`.  A metric
table's memo grows after insertion; the table makes the same check once
per new object vector and drops its memo when the process is still over
with nothing else left to drop.  Where there is no procfs, nothing is
dropped (the run budget's ``memory_budget_enforced: false``).

Entries may hold strong references on purpose: callers that key on
``id(obj)`` store ``obj`` inside the value, which keeps the id stable for
exactly as long as the entry lives.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Callable, Hashable, TypeVar

from repro.util.rss import resident_bytes

V = TypeVar("V")

#: the ceiling on this process's resident set above which cached values
#: are dropped.  A ``paper`` seed's five static experiments (fig9, fig10,
#: tab1, tab2, tab3) in one process peak at 1,031 MiB ``ru_maxrss`` with
#: all 60 overlays cached.  A ceiling below one experiment's scan drops
#: every graph before the next experiment reads it
CACHE_BYTES = 2 << 30

#: key -> value, least recently used first
_lru: "OrderedDict[Hashable, Any]" = OrderedDict()


def clear_all_caches() -> None:
    """Empty the LRU.

    Used by the test suite between tests (a monkeypatched constructor must
    not leak its products into later tests through a construction cache)
    and by cold-start measurements.
    """
    _lru.clear()


def get_or_build(key: Hashable, build: Callable[[], V]) -> V:
    """The cached value for ``key``, building and inserting it on a miss.

    The one memoisation entry point every construction cache uses; each
    prefixes its keys with its own name.  Callers that key on ``id(obj)``
    make ``build`` return a value that holds ``obj``, and the pinning
    invariant holds without per-site bookkeeping.
    """
    if key in _lru:
        _lru.move_to_end(key)
    else:
        _lru[key] = build()
        make_room(_lru[key])
    return _lru[key]


def make_room(value: Any) -> bool:
    """Drop least-recently-used values other than ``value`` until this
    process's resident set is at most :data:`CACHE_BYTES`: the one
    eviction site.  Answers whether it is still over with nothing else
    left to drop, which tells a metric table to drop its memo."""
    while (rss := resident_bytes()) is not None and rss > CACHE_BYTES:
        stale = next((key for key, cached in _lru.items() if cached is not value), None)
        if stale is None:
            return True
        del _lru[stale]
    return False
