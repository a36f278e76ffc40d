"""Correlated regional outages keyed off transit-stub domains.

The flapping and churn models perturb nodes *independently*; the failures
that actually partition deployed overlays are correlated — a transit
domain's power or uplink goes, and every stub customer behind it vanishes
at once (cf. Caron et al. on self-stabilizing recovery after large-scale
events).  :class:`RegionalOutage` models exactly that over the GT-ITM-style
underlay of :mod:`repro.overlay.transit_stub`: each overlay node belongs to
the *region* (transit domain) its stub attachment hangs off, and an outage
takes whole regions offline for one window ``[start, start + duration)``.

``severity`` is the fraction of regions hit; the affected set is a prefix
of one seed-deterministic permutation of the regions, so sweeps over
severity are reproducible and **nested** — raising the severity only adds
regions, which makes success-vs-severity curves monotone by construction
(the experiment harness sweeps severity 0..1 to get exactly those curves).
An overlay with no domain structure (a single region) cannot express a
*regional* outage and is rejected with
:class:`~repro.errors.ConfigurationError`.
"""

from __future__ import annotations

import dataclasses
from typing import Sequence

import numpy as np

from repro.errors import ConfigurationError
from repro.perturbation.base import ProcessBase
from repro.sim.rng import derive_rng, validate_seed


@dataclasses.dataclass(frozen=True)
class RegionalOutageConfig:
    """One correlated outage window.

    Parameters
    ----------
    start:
        Simulation time at which the affected regions go dark.
    duration:
        Length of the outage window (seconds).
    severity:
        Fraction of regions affected, in ``[0, 1]``; the number of regions
        hit is ``severity`` times the number of regions, rounded.
    """

    start: float
    duration: float
    severity: float

    def __post_init__(self) -> None:
        if self.start < 0:
            raise ConfigurationError(f"outage start must be >= 0, got {self.start}")
        if self.duration <= 0:
            raise ConfigurationError(
                f"outage duration must be positive, got {self.duration}"
            )
        if not 0.0 <= self.severity <= 1.0:
            raise ConfigurationError(
                f"outage severity must be in [0, 1], got {self.severity}"
            )

    @property
    def end(self) -> float:
        return self.start + self.duration

    @property
    def label(self) -> str:
        return f"outage(severity={self.severity:g} @ {self.start:g}s for {self.duration:g}s)"


class RegionalOutage(ProcessBase):
    """Availability process: whole regions offline during one window.

    Parameters
    ----------
    regions:
        Region id per overlay node (e.g. the transit domain of each node's
        stub attachment); length defines ``num_nodes``.  At least two
        distinct regions are required — "regional" is meaningless on an
        overlay without domain structure.
    config:
        The outage window and severity.
    seed:
        Root of the deterministic affected-region draw.
    always_online:
        Node indices exempt from the outage (e.g. the measurement client).
    """

    def __init__(
        self,
        regions: Sequence[int],
        config: RegionalOutageConfig,
        seed: int | tuple = 0,
        always_online: frozenset[int] | set[int] = frozenset(),
    ):
        validate_seed(seed)
        self.regions = tuple(int(r) for r in regions)
        if not self.regions:
            raise ConfigurationError("regional outage needs at least one node")
        self.num_nodes = len(self.regions)
        self.config = config
        self.seed = seed
        self.always_online = frozenset(always_online)
        distinct = sorted(set(self.regions))
        if len(distinct) < 2:
            raise ConfigurationError(
                f"regional outages need an overlay with domain structure; "
                f"this one has {len(distinct)} region(s) — attach nodes to a "
                f"transit-stub underlay with >= 2 transit domains"
            )
        # One severity-independent permutation per (seed, start); the
        # affected set is its prefix, so higher severity strictly adds
        # regions and severity sweeps stay nested.
        count = round(config.severity * len(distinct))
        rng = derive_rng(seed, "outage-regions", config.start)
        order = rng.sample(distinct, len(distinct))
        self.regions_down = frozenset(order[:count])

        #: hot-path view: exactly the nodes the window can take offline
        #: (affected region, not exempt), plus the window bounds as floats
        self._affected = frozenset(
            node
            for node, region in enumerate(self.regions)
            if region in self.regions_down and node not in self.always_online
        )
        self._start = config.start
        self._end = config.end
        self._affected_array = np.fromiter(
            sorted(self._affected), dtype=np.int64, count=len(self._affected)
        )

    def affects(self, node: int) -> bool:
        """Whether ``node`` sits in an affected region (exemptions aside)."""
        return self.regions[node] in self.regions_down

    def is_online(self, node: int, time: float) -> bool:
        """Ground-truth availability: offline iff in a dark region during
        the outage window."""
        if node in self._affected:
            return not (self._start <= time < self._end)
        return True

    def online_mask(self, time: float) -> np.ndarray:
        """Bulk bitmap: one scatter over the affected-node index array."""
        mask = np.ones(self.num_nodes, dtype=bool)
        if self._start <= time < self._end:
            mask[self._affected_array] = False
        return mask

    def offline_intervals(self, node: int, until: float) -> list[tuple[float, float]]:
        """The single outage window, for affected nodes that see it."""
        if node in self.always_online or not self.affects(node):
            return []
        if self.config.start >= until:
            return []
        return [(self.config.start, self.config.end)]


def regions_from_attachment(underlay, attachment: Sequence[int]) -> list[int]:
    """Region id per overlay node from its transit-stub attachment.

    ``underlay`` must expose ``transit_domain_of`` (see
    :class:`repro.overlay.transit_stub.TransitStubUnderlay`); overlays built
    without an underlay have no domain structure and cannot host regional
    outages.
    """
    domain_of = getattr(underlay, "transit_domain_of", None)
    if domain_of is None:
        raise ConfigurationError(
            f"underlay {type(underlay).__name__} has no domain structure; "
            f"regional outages need a transit-stub underlay"
        )
    return [domain_of(stub) for stub in attachment]
