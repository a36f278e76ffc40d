"""MPIL (Multi-Path Insertion/Lookup) — the paper's primary contribution.

Public surface:

- :class:`repro.core.identifiers.IdSpace` / ``Identifier`` — the m-bit,
  base-2^b identifier space (paper Section 5's "m-bit ID space with base-2^b
  representation"; the evaluation uses 160-bit IDs with b = 4).
- :class:`repro.core.config.MPILConfig` — algorithm parameters
  (``max_flows``, ``per_flow_replicas``, duplicate suppression, ...).
- :class:`repro.core.protocol.MPILRequest` — the per-message step of
  Figure 5, the one implementation both drivers schedule.
- :class:`repro.core.network.MPILNetwork` — synchronous message-level driver
  for static overlays (paper Section 6.1).
- :class:`repro.core.timed.TimedMPILNetwork` — event-driven driver for
  perturbed overlays (paper Section 6.2).
- :class:`repro.core.replicas.ReplicaDirectory` — which nodes hold a
  pointer for which object, shared by both drivers.
- :class:`repro.core.results.LookupResult` — the one lookup record every
  driver returns (MPIL, Pastry and the baselines), with its ``cause``.

Section 4.4's deletion protocol (replica heartbeats to the owner, explicit
delete messages) is not modelled: the paper evaluates no deletion.
"""

from repro.core.config import MPILConfig
from repro.core.identifiers import Identifier, IdSpace
from repro.core.metric import (
    CommonDigitsMetric,
    NeighborMetricTable,
    PrefixLengthMetric,
    SuffixLengthMetric,
    common_digits,
)
from repro.core.network import MPILNetwork
from repro.core.replicas import ReplicaDirectory
from repro.core.results import InsertResult, LookupResult
from repro.core.timed import TimedMPILNetwork

__all__ = [
    "CommonDigitsMetric",
    "Identifier",
    "IdSpace",
    "InsertResult",
    "LookupResult",
    "MPILConfig",
    "MPILNetwork",
    "NeighborMetricTable",
    "PrefixLengthMetric",
    "ReplicaDirectory",
    "SuffixLengthMetric",
    "TimedMPILNetwork",
    "common_digits",
]
