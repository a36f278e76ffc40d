"""Struct-of-arrays testbed core.

At the scale-ladder rungs (10^5-10^6 nodes) per-object node state — one
Python object, dict entry, and digit-matrix copy per node — dominates both
memory and setup time.  ``NodeArrays`` keeps the whole population in a
handful of NumPy arrays instead:

- ``digits``: one shared ``(n, M)`` uint8 digit matrix (no per-node copies),
- ``indptr``/``indices``: the overlay's CSR adjacency
  (:meth:`repro.overlay.graph.OverlayGraph.adjacency_arrays`),
- ``rows_with_self``/``indptr_ws``: a combined ``[self, *neighbors]`` row
  index per node, so gathering any per-population vector for a node's
  forwarding decision is one slice,
- ``alive``: a liveness bitmap refreshed in bulk from an availability
  process (:meth:`refresh_alive`) instead of per-node ``is_online`` calls.

Everything is built vectorised — there is no per-node Python loop in
construction, which is what lets a 10^5-node testbed come up in well under
a second once the overlay exists.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.core.identifiers import Identifier
from repro.errors import RoutingError


def pack_digit_matrix(ids: Sequence[Identifier]) -> np.ndarray:
    """The shared ``(n, M)`` uint8 digit matrix of an identifier sequence.

    Each :class:`Identifier` already caches its digit string as ``bytes``;
    one join + ``frombuffer`` builds the matrix without stacking ``n``
    per-id arrays.
    """
    if not ids:
        return np.empty((0, 0), dtype=np.uint8)
    num_digits = ids[0].space.num_digits
    buffer = b"".join(identifier.digits for identifier in ids)
    matrix = np.frombuffer(buffer, dtype=np.uint8).reshape(len(ids), num_digits)
    matrix.flags.writeable = False
    return matrix


class NodeArrays:
    """Immutable-shape struct-of-arrays view of one overlay population.

    Parameters
    ----------
    overlay:
        An :class:`repro.overlay.graph.OverlayGraph` (anything exposing
        ``n`` and ``adjacency_arrays()``).
    ids:
        One :class:`Identifier` per overlay node.
    """

    __slots__ = (
        "n", "num_digits", "space", "ids", "digits",
        "indptr", "indices", "indptr_ws", "rows_with_self", "alive",
    )

    def __init__(self, overlay, ids: Sequence[Identifier]):
        if len(ids) != overlay.n:
            raise RoutingError(
                f"identifier list has {len(ids)} entries for {overlay.n} nodes"
            )
        n = overlay.n
        self.n = n
        self.ids = tuple(ids)
        self.space = ids[0].space if ids else None
        self.num_digits = self.space.num_digits if ids else 0
        self.digits = pack_digit_matrix(self.ids)
        indptr, indices = overlay.adjacency_arrays()
        self.indptr = indptr
        self.indices = indices
        # Combined [self, *neighbors] row table: node u's rows live at
        # rows_with_self[indptr_ws[u]:indptr_ws[u+1]], with the self row
        # first.  Built by shifting the CSR offsets by one slot per node and
        # scattering the self indices into the gaps — fully vectorised.
        arange_n = np.arange(n, dtype=np.int64)
        self.indptr_ws = indptr + np.arange(n + 1, dtype=np.int64)
        rows = np.empty(indices.shape[0] + n, dtype=np.int64)
        rows[self.indptr_ws[:-1]] = arange_n
        neighbor_slots = np.ones(rows.shape[0], dtype=bool)
        neighbor_slots[self.indptr_ws[:-1]] = False
        rows[neighbor_slots] = indices
        rows.flags.writeable = False
        self.rows_with_self = rows
        self.alive = np.ones(n, dtype=bool)

    def neighbors(self, node: int) -> np.ndarray:
        """Sorted neighbor indices of ``node`` (a CSR slice, no copy)."""
        return self.indices[self.indptr[node]:self.indptr[node + 1]]

    def rows_ws(self, node: int) -> np.ndarray:
        """``[node, *neighbors]`` row indices (a slice, no copy)."""
        return self.rows_with_self[self.indptr_ws[node]:self.indptr_ws[node + 1]]

    # -- liveness bitmap -----------------------------------------------------

    def refresh_alive(self, process, time: float) -> np.ndarray:
        """Refresh the liveness bitmap from an availability process at
        ``time`` in one bulk ``online_mask`` call and return it."""
        mask = process.online_mask(time)
        self.alive[:] = mask
        return self.alive

    def online_count(self) -> int:
        return int(self.alive.sum())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"NodeArrays(n={self.n}, digits={self.digits.shape})"
