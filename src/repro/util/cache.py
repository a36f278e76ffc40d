"""One process-wide LRU for memoised construction, bounded in bytes.

Several layers build identical immutable state over and over — the same
overlay graph for every experiment that shares a ``(family, n, graph,
seed)`` cell, the same Pastry ring/leaf-set/routing-table structure for
every scenario experiment at one scale, the same neighbor digit matrices
for every run over one overlay.  :func:`get_or_build` memoises all of them
in one least-recently-used order: pure functions of their keys, immutable
values, and one bound, :data:`CACHE_BYTES`, on the bytes they hold
together.

Each value is charged what :func:`nbytes` says it keeps alive, pinned
objects included, so the charges over-count and never under-count what
the cache holds.  A metric table's memo grows after insertion and charges
its growth through :func:`spend`, the one eviction site.  The bytes held
right now are ``repro.util.cache.held``.

Entries may hold strong references on purpose: callers that key on
``id(obj)`` store ``obj`` inside the value, which keeps the id stable for
exactly as long as the entry lives.
"""

from __future__ import annotations

import functools
import gc
import sys
import types
from collections import OrderedDict
from typing import Any, Callable, Hashable, TypeVar

import numpy as np

V = TypeVar("V")

#: the bound on the bytes every cached value is charged, together.  A
#: ``paper`` seed's five static experiments (fig9, fig10, tab1, tab2, tab3)
#: in one process peak at 1.67 GiB of charges and 1,031 MiB ``ru_maxrss``
#: (60 overlays charged as if every neighbour tuple were built, their
#: metric tables charged each overlay and ids again, and the tables'
#: memos); fig9 alone reaches 1.49 GiB.  A budget smaller than one
#: experiment's scan evicts every graph before the next experiment reads it
CACHE_BYTES = 2 << 30

#: key -> value, least recently used first
_lru: "OrderedDict[Hashable, Any]" = OrderedDict()
#: ``id(value)`` -> ``[key, bytes charged]`` for every value in the LRU
#: (the entry pins the value, so its id stays unique while listed)
_charges: dict[int, list] = {}
#: the bytes charged to every value in the LRU, together
held = 0


@functools.cache
def _rule(cls: type) -> str:
    """How :func:`nbytes` charges an instance of ``cls``.  Classes,
    modules and functions are shared, so charged to nothing; a type
    without ``Py_TPFLAGS_HAVE_GC`` references no other object."""
    if issubclass(cls, (type, types.ModuleType, types.FunctionType, types.BuiltinFunctionType)):
        return "shared"
    if issubclass(cls, np.ndarray):
        return "array"
    if isinstance(getattr(cls, "nbytes", None), property):
        return "own"
    return "walk" if cls.__flags__ & (1 << 14) else "leaf"


def clear_all_caches() -> None:
    """Empty the LRU.

    Used by the test suite between tests (a monkeypatched constructor must
    not leak its products into later tests through a construction cache)
    and by cold-start measurements.
    """
    global held
    _lru.clear()
    _charges.clear()
    held = 0


def nbytes(value: Any) -> int:
    """The bytes ``value`` keeps alive, as the budget charges them.

    A value already cached is charged what it was charged there (a table
    pins its ids); an object whose class defines an ``nbytes`` property
    (an overlay, a metric table) is charged that; a numpy array its
    ``sys.getsizeof`` and its base's; anything else its own
    ``sys.getsizeof`` and that of every object it reaches
    (``gc.get_referents``), each once.  Classes, modules and functions are
    shared and charged to nothing.
    """
    total = 0
    seen: set[int] = set()
    stack: list[Any] = [value]
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        entry = _charges.get(id(obj))
        rule = _rule(type(obj))
        if entry:
            total += entry[1]
        elif rule == "own":
            total += obj.nbytes
        elif rule != "shared":
            total += sys.getsizeof(obj)
            if rule == "walk":
                stack.extend(gc.get_referents(obj))
            elif rule == "array":
                stack.append(obj.base)
    # and 1/64 more for what ``sys.getsizeof`` leaves out: numpy's shape
    # blocks, instances' attribute arrays, this cache's own entry
    return total + (total >> 6)


def get_or_build(key: Hashable, build: Callable[[], V]) -> V:
    """The cached value for ``key``, building, charging and inserting it on
    a miss.

    The one memoisation entry point every construction cache uses; each
    prefixes its keys with its own name.  Callers that key on ``id(obj)``
    make ``build`` return a value that holds ``obj``, and the pinning
    invariant holds without per-site bookkeeping.
    """
    if key not in _lru:
        value = build()
        charge = nbytes((key, value))
        _lru[key] = value
        _charges[id(value)] = [key, 0]
        spend(value, charge)
    _lru.move_to_end(key)
    return _lru[key]


def spend(value: Any, charge: int) -> bool:
    """Charge ``charge`` more bytes to ``value`` and make room: the one
    eviction site.

    A cached value is refreshed to most recently used and its charge
    grows; then least-recently-used values other than ``value`` are
    dropped until the bytes held fit :data:`CACHE_BYTES`.  Answers whether
    ``value`` alone, with ``charge``, still overflows them, which tells a
    metric table to drop its memo (cached or not).
    """
    global held
    entry = _charges.get(id(value))
    if entry is not None:
        entry[1] += charge
        held += charge
        _lru.move_to_end(entry[0])
    while held > CACHE_BYTES and len(_lru) > (entry is not None):
        held -= _charges.pop(id(_lru.popitem(last=False)[1]))[1]
    return (entry[1] if entry else value.nbytes + charge) > CACHE_BYTES
