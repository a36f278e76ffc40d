"""Complete overlay topology (every node adjacent to every other).

Used by the Section-5 analysis cross-checks: the expected number of
replicas in a complete topology (Figure 8) is validated against MPIL runs
on :func:`complete_graph` instances.
"""

from __future__ import annotations

import numpy as np

from repro.errors import OverlayError
from repro.overlay.graph import OverlayGraph


def complete_graph(n: int) -> OverlayGraph:
    """The complete graph K_n as an :class:`OverlayGraph`."""
    if n < 1:
        raise OverlayError(f"complete graph needs at least 1 node, got {n}")
    nodes = np.arange(n, dtype=np.int64)
    indices = np.broadcast_to(nodes, (n, n))[~np.eye(n, dtype=bool)]
    indptr = np.arange(n + 1, dtype=np.int64) * (n - 1)
    return OverlayGraph.from_csr(indptr, indices, name=f"complete-{n}")
