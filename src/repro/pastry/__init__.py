"""Pastry substrate (MSPastry-style baseline).

The paper compares MPIL against MSPastry, "the original implementation of
Pastry ... obtained under a limited license from Microsoft Research", with
the dependability techniques of Castro et al. (DSN 2004) enabled and the
configuration b=4, l=8, leafset probing 30 s, routing-table maintenance
12000 s, routing-table probing 90 s, probe timeout 3 s, probe retries 2.

MSPastry is closed source, so this package implements Pastry from the
published algorithm plus those mechanisms:

- :mod:`repro.pastry.state` — identifier ring, leaf sets, routing tables;
- :mod:`repro.pastry.routing` — the per-hop routing rule;
- :mod:`repro.pastry.views` — the probed-view oracle deriving each node's
  liveness beliefs from its probe schedule under flapping;
- :mod:`repro.pastry.protocol` — insert (root storage or Replication on
  Route) and perturbed lookup with per-hop retransmission and re-routing;
- :mod:`repro.pastry.mpil_on_pastry` — MPIL running over the Pastry
  overlay's neighbor lists with maintenance disabled (paper Section 6.2).
"""

from repro.pastry.config import PastryConfig
from repro.pastry.mpil_on_pastry import make_mpil_over_pastry, pastry_neighbor_overlay
from repro.pastry.protocol import PastryNetwork
from repro.pastry.views import ProbedViewOracle

__all__ = [
    "PastryConfig",
    "PastryNetwork",
    "ProbedViewOracle",
    "make_mpil_over_pastry",
    "pastry_neighbor_overlay",
]
