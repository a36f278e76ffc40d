"""Message latency models.

The static MPIL experiments are message-level and hop-counted, so latency is
irrelevant there.  The perturbation experiments (paper Sections 3 and 6.2)
run over a GT-ITM-style transit-stub underlay; overlay hops inherit the
underlay's shortest-path delay between the endpoints' attachment points.
"""

from __future__ import annotations

import math
from typing import Protocol, Sequence, runtime_checkable

import numpy as np

from repro.errors import ConfigurationError
from repro.sim.rng import derive_rng


@runtime_checkable
class LatencyModel(Protocol):
    """Protocol for pairwise one-way message latency in seconds."""

    def latency(self, src: int, dst: int) -> float:
        ...  # pragma: no cover - protocol


class ConstantLatency:
    """Every message takes exactly ``value`` seconds."""

    def __init__(self, value: float = 0.05):
        if not 0 <= value < math.inf:
            raise ConfigurationError(f"latency must be non-negative and finite, got {value}")
        self.value = float(value)

    def latency(self, src: int, dst: int) -> float:  # noqa: ARG002
        return self.value


class UniformRandomLatency:
    """Latency drawn once per ordered pair, uniform in [lo, hi].

    Pair latencies are symmetric and memoised, so repeated sends between the
    same endpoints see a stable delay (as they would on a real path).
    """

    def __init__(self, lo: float, hi: float, seed: object = 0):
        if not 0 <= lo <= hi < math.inf:
            raise ConfigurationError(f"invalid latency range [{lo}, {hi}]")
        self.lo = float(lo)
        self.hi = float(hi)
        self._seed = seed
        self._cache: dict[tuple[int, int], float] = {}

    def latency(self, src: int, dst: int) -> float:
        if src == dst:
            return 0.0
        key = (min(src, dst), max(src, dst))
        value = self._cache.get(key)
        if value is None:
            rng = derive_rng(self._seed, "latency", key)
            value = rng.uniform(self.lo, self.hi)
            self._cache[key] = value
        return value


class UnderlayLatency:
    """Overlay latency derived from an underlay's all-pairs delays.

    The overlay-level matrix is never held: :meth:`latency_block` gathers a
    rectangle of it as an array for the routing-table builder, and
    :meth:`latency_row` / :meth:`latency` fill a per-source row the first
    time that source sends a message.

    Parameters
    ----------
    underlay:
        Object exposing ``pairwise_latency(u, v) -> float`` and, optionally,
        ``latency_matrix() -> ndarray`` (see
        :class:`repro.overlay.transit_stub.TransitStubUnderlay`).
    attachment:
        Sequence mapping overlay node index -> underlay node index.
    """

    def __init__(self, underlay, attachment: Sequence[int]):
        self.underlay = underlay
        self.attachment = tuple(int(a) for a in attachment)
        n_under = underlay.num_nodes
        for a in self.attachment:
            if not 0 <= a < n_under:
                raise ConfigurationError(
                    f"attachment point {a} outside underlay of size {n_under}"
                )
        self._attached = np.array(self.attachment, dtype=np.intp)
        #: lazily materialised per-source rows of the overlay-level latency
        #: matrix, as plain float lists (dict/list indexing beats a numpy
        #: scalar read per message by an order of magnitude)
        self._rows: dict[int, list[float]] = {}

    def _check_range(self, start: int, stop: int, n: int) -> None:
        attached = len(self.attachment)
        if not (0 <= start <= stop <= attached and 0 <= n <= attached):
            raise ConfigurationError(
                f"latencies from overlay nodes [{start}, {stop}) to the first {n} "
                f"requested, but {attached} nodes are attached to the underlay"
            )

    def latency_row(self, src: int, n: int) -> list[float]:
        """Latencies from overlay node ``src`` to overlay nodes ``0..n-1``.

        ``src`` and ``n`` must lie within the attachment; rows are cached
        for the per-message hot path.
        """
        self._check_range(src, src + 1, n)
        row = self._rows.get(src)
        if row is None:
            matrix = getattr(self.underlay, "latency_matrix", None)
            if matrix is not None:
                row = matrix()[self.attachment[src], self._attached].tolist()
            else:
                pairwise = self.underlay.pairwise_latency
                source = self.attachment[src]
                row = [pairwise(source, a) for a in self.attachment]
            self._rows[src] = row
        return row[:n] if n < len(row) else row

    def latency_block(self, start: int, stop: int, n: int) -> np.ndarray:
        """Latencies from overlay nodes ``start..stop-1`` to overlay nodes
        ``0..n-1`` as one ``(stop - start, n)`` array: the stacked
        :meth:`latency_row`s, gathered without materialising them."""
        self._check_range(start, stop, n)
        matrix = getattr(self.underlay, "latency_matrix", None)
        if matrix is None:
            rows = [self.latency_row(src, n) for src in range(start, stop)]
            return np.array(rows, dtype=np.float64).reshape(stop - start, n)
        return matrix()[np.ix_(self._attached[start:stop], self._attached[:n])]

    def latency(self, src: int, dst: int) -> float:
        if src == dst:
            return 0.0
        row = self._rows.get(src)
        if row is None:
            row = self.latency_row(src, len(self.attachment))
        return row[dst]
