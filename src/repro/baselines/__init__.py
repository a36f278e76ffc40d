"""Unstructured-overlay lookup baselines.

The paper positions MPIL between two extremes: "Unstructured overlays such
as Gnutella use flooding ... perturbation-resistant and overlay-independent,
but neither efficient nor scalable", and DHT routing (efficient but
overlay-dependent).  Related work (Lv et al.) replaces flooding with random
walks.  This package implements both baselines over the same
:class:`~repro.overlay.graph.OverlayGraph` + replica directory so lookup
strategies can be compared like-for-like, and provides the random-walk
primitive used to validate the Section 5.1 expected-hops analysis
(``E[hops to a local maximum] = 1/C``).
"""

from repro.baselines.flooding import flood_lookup
from repro.baselines.walks import random_walk_lookup, walk_hops_to_local_maximum

__all__ = [
    "flood_lookup",
    "random_walk_lookup",
    "walk_hops_to_local_maximum",
]
