"""Message latency models.

The static MPIL experiments are message-level and hop-counted, so latency is
irrelevant there.  The perturbation experiments (paper Sections 3 and 6.2)
run over a GT-ITM-style transit-stub underlay; overlay hops inherit the
underlay's shortest-path delay between the endpoints' attachment points,
computed from the parts the underlay keeps instead of an all-pairs matrix.
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
    """Overlay latency read from an underlay's shortest-path delays.

    The underlay holds no all-pairs matrix: :meth:`latency` asks it for
    one pair, which it computes from its parts as a plain ``float``, and
    :meth:`latency_block` for a rectangle as one array, for the
    routing-table builder.  Nothing is kept per sender.

    Parameters
    ----------
    underlay:
        Object exposing ``num_nodes`` and ``delays()``, whose result has
        ``delay(source, target)`` and ``block(sources, targets)`` over
        underlay nodes (see
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
        self._delays = underlay.delays()
        self._delay = self._delays.delay
        self._size = len(self.attachment)

    def _check_range(self, start: int, stop: int, n: int) -> None:
        attached = self._size
        if not (0 <= start <= stop <= attached and 0 <= n <= attached):
            raise ConfigurationError(
                f"latencies from overlay nodes [{start}, {stop}) to the first {n} "
                f"requested, but {attached} nodes are attached to the underlay"
            )

    def latency_block(self, start: int, stop: int, n: int) -> np.ndarray:
        """Latencies from overlay nodes ``start..stop-1`` to overlay nodes
        ``0..n-1`` as one ``(stop - start, n)`` array: the stacked
        :meth:`latency` reads, computed in one vectorised pass."""
        self._check_range(start, stop, n)
        return self._delays.block(self._attached[start:stop], self._attached[:n])

    def latency(self, src: int, dst: int) -> float:
        if not 0 <= src < self._size > dst >= 0:
            raise ConfigurationError(
                f"latency from overlay node {src} to {dst} requested, "
                f"but {self._size} nodes are attached to the underlay"
            )
        return self._delay(self.attachment[src], self.attachment[dst])
