"""Replica bookkeeping.

MPIL inserts *pointers* to objects ("An object (or a pointer to its
location) can be inserted using MPIL routing").  ``ReplicaDirectory`` is
the global view of which nodes hold a pointer for which object — drivers
update it as insertions land and consult it as lookups propagate.
"""

from __future__ import annotations

from repro.core.identifiers import Identifier


class ReplicaDirectory:
    """Global map object-id -> replica holders, keyed by the identifier's
    integer value."""

    def __init__(self) -> None:
        self._holders: dict[int, set[int]] = {}

    def store(self, node: int, object_id: Identifier) -> bool:
        """Record a replica.  Returns True if this is a new (node, object)
        pair, False if the node already held the pointer (idempotent)."""
        holders = self._holders.setdefault(object_id.value, set())
        if node in holders:
            return False
        holders.add(node)
        return True

    def remove_object(self, object_id: Identifier) -> int:
        """Remove every replica of an object.  Returns how many existed."""
        return len(self._holders.pop(object_id.value, ()))

    def has(self, node: int, object_id: Identifier) -> bool:
        holders = self._holders.get(object_id.value)
        return holders is not None and node in holders

    def holders(self, object_id: Identifier) -> frozenset[int]:
        return frozenset(self._holders.get(object_id.value, ()))

    def replica_count(self, object_id: Identifier) -> int:
        return len(self._holders.get(object_id.value, ()))

    def __len__(self) -> int:
        """Total number of (node, object) replica pairs."""
        return sum(len(h) for h in self._holders.values())
