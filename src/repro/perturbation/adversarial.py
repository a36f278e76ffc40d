"""Adversarial removal: knock out the overlay's most valuable nodes.

Independent flapping is the *kindest* failure model; the one that breaks
overlays is an adversary deleting the nodes that carry the most routing
state (Aspnes et al., "Fault-tolerant routing in peer-to-peer systems":
adversarial deletion of high-degree nodes disconnects naive overlays far
faster than random faults).  :class:`AdversarialRemoval` removes a fraction
of nodes *permanently* from ``start`` onward, targeting either the
highest-degree nodes of the overlay graph (``targeting="degree"``) or a
uniform sample (``targeting="random"``, the control arm) — sweeping the
fraction under both yields the targeted-vs-random resilience gap.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Sequence

from repro.errors import ConfigurationError
from repro.perturbation.base import ProcessBase
from repro.sim.rng import derive_rng

TARGETING_MODES = ("degree", "random")


@dataclasses.dataclass(frozen=True)
class AdversarialRemovalConfig:
    """One permanent-removal attack.

    Parameters
    ----------
    fraction:
        Fraction of eligible nodes removed, in ``[0, 1]``.
    start:
        Time at which the removed nodes go (and stay) dark.
    targeting:
        ``"degree"`` removes the highest-degree nodes (ties broken by node
        id, so the attack is deterministic); ``"random"`` removes a
        seed-deterministic uniform sample of the same size.
    """

    fraction: float
    start: float = 0.0
    targeting: str = "degree"

    def __post_init__(self) -> None:
        if not 0.0 <= self.fraction <= 1.0:
            raise ConfigurationError(
                f"removal fraction must be in [0, 1], got {self.fraction}"
            )
        if self.start < 0:
            raise ConfigurationError(f"removal start must be >= 0, got {self.start}")
        if self.targeting not in TARGETING_MODES:
            raise ConfigurationError(
                f"targeting must be one of {TARGETING_MODES}, got {self.targeting!r}"
            )

    @property
    def label(self) -> str:
        return f"removal({self.fraction:.0%} by {self.targeting} @ {self.start:g}s)"


class AdversarialRemoval(ProcessBase):
    """Availability process: a chosen node set offline forever from ``start``.

    Parameters
    ----------
    degrees:
        Per-node coverage scores the adversary ranks by — typically an
        :class:`~repro.overlay.graph.OverlayGraph`'s ``total_degrees`` (for
        directed overlays such as Pastry neighbor lists, in-edges measure
        how much routing state *points at* a node, which is the coverage an
        adversary wants gone); length defines ``num_nodes``.  Ignored (but
        still sized) under random targeting.
    """

    def __init__(
        self,
        degrees: Sequence[int],
        config: AdversarialRemovalConfig,
        seed: int | tuple = 0,
        always_online: frozenset[int] | set[int] = frozenset(),
    ):
        self.degrees = tuple(int(d) for d in degrees)
        if not self.degrees:
            raise ConfigurationError("adversarial removal needs at least one node")
        super().__init__(config, len(self.degrees), seed, always_online)
        eligible = [n for n in range(self.num_nodes) if n not in self.always_online]
        count = round(config.fraction * len(eligible))
        if config.targeting == "degree":
            # highest coverage first; node id breaks ties deterministically
            ranked = sorted(eligible, key=lambda n: (-self.degrees[n], n))
            removed = ranked[:count]
        else:
            rng = derive_rng(seed, "adversarial-random", self.num_nodes, config.label)
            removed = rng.sample(eligible, count) if count else []
        self.removed = frozenset(removed)

    def is_online(self, node: int, time: float) -> bool:
        """Removed nodes are gone for good once the attack starts."""
        if node not in self.removed:
            return True
        return time < self.config.start

    def offline_intervals(self, node: int, until: float) -> list[tuple[float, float]]:
        """One unbounded window ``[start, inf)`` per removed node."""
        if node not in self.removed or self.config.start >= until:
            return []
        return [(self.config.start, math.inf)]
