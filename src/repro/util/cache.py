"""A tiny bounded LRU cache for memoising expensive pure construction.

Several layers build identical immutable state over and over — the same
overlay graph for every experiment that shares a ``(family, n, graph,
seed)`` cell, the same Pastry ring/leaf-set/routing-table structure for
every scenario experiment at one scale, the same neighbor digit matrices
for every run over one overlay.  :class:`BoundedCache` memoises those
constructions per process: pure functions of their keys, immutable values,
strict LRU eviction so long sweeps cannot grow memory without bound.

Entries may hold strong references on purpose: callers that key on
``id(obj)`` store ``obj`` inside the value tuple, which keeps the id stable
for exactly as long as the entry lives.
"""

from __future__ import annotations

import weakref
from collections import OrderedDict
from typing import Callable, Generic, Hashable, Optional, TypeVar

from repro.errors import ConfigurationError

V = TypeVar("V")

#: every live BoundedCache, so one call can empty them all (test isolation,
#: cold-start benchmarking)
_REGISTRY: "weakref.WeakSet[BoundedCache]" = weakref.WeakSet()


def clear_all_caches() -> None:
    """Empty every :class:`BoundedCache` in the process.

    Used by the test suite between tests (a monkeypatched constructor must
    not leak its products into later tests through a construction cache)
    and by cold-start measurements.
    """
    for cache in list(_REGISTRY):
        cache.clear()


class BoundedCache(Generic[V]):
    """An LRU mapping with a fixed capacity.

    >>> cache = BoundedCache(maxsize=2)
    >>> cache.put("a", 1); cache.put("b", 2); cache.put("c", 3)
    >>> cache.get("a") is None  # evicted: capacity 2, LRU order
    True
    >>> cache.get("c")
    3
    """

    def __init__(self, maxsize: int):
        if maxsize < 1:
            raise ConfigurationError(f"maxsize must be >= 1, got {maxsize}")
        self.maxsize = maxsize
        self._data: OrderedDict[Hashable, V] = OrderedDict()
        _REGISTRY.add(self)

    def get(self, key: Hashable) -> Optional[V]:
        """The cached value, refreshed to most-recently-used; None if absent."""
        try:
            self._data.move_to_end(key)
        except KeyError:
            return None
        return self._data[key]

    def put(self, key: Hashable, value: V) -> None:
        """Insert (or refresh) an entry, evicting the LRU one when full."""
        self._data[key] = value
        self._data.move_to_end(key)
        if len(self._data) > self.maxsize:
            self._data.popitem(last=False)

    def get_or_build(self, key: Hashable, factory: Callable[[], V]) -> V:
        """The cached value for ``key``, building and inserting it on a miss.

        The one memoisation entry point every construction cache uses:
        callers that key on ``id(obj)`` just make ``factory`` return a
        tuple containing ``obj``, and the pinning invariant holds without
        per-site bookkeeping.
        """
        value = self.get(key)
        if value is None:
            value = factory()
            self.put(key, value)
        return value

    def __len__(self) -> int:
        return len(self._data)

    def clear(self) -> None:
        self._data.clear()
