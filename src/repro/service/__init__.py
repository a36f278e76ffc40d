"""Sustained-traffic service mode: open-loop workloads with tail latency.

The paper's experiments issue one lookup per flapping cycle — a closed
loop where each request finishes before the next begins.  A deployed
discovery service sees the opposite regime: requests arrive on their own
clock, overlap in flight, and are judged by latency *percentiles* over
time windows, not by a single success ratio.  This package adds that
regime on top of the existing simulation stack:

- :mod:`repro.service.arrivals` — deterministic open-loop arrival
  processes (Poisson or fixed-rate);
- :mod:`repro.service.driver` — run a query/insert stream against a live
  perturbed overlay on one shared
  :class:`~repro.sim.engine.EventScheduler`;
- :mod:`repro.service.windows` — per-window p50/p95/p99, throughput,
  in-flight depth, and SLO verdicts.

The ``svc-*`` experiments in :mod:`repro.experiments.svc_service` drive
this package through the standard spec/store pipeline.
"""

from repro.service.arrivals import fixed_arrivals, generate_arrivals, poisson_arrivals
from repro.service.driver import (
    SERVICE_COLUMNS,
    SERVICE_STAT_SUFFIXES,
    QueryRecord,
    ServiceConfig,
    ServiceReport,
    run_service,
    service_rows,
)
from repro.service.windows import SLOPolicy, WindowStats, peak_in_flight, summarize_windows

__all__ = [
    "QueryRecord",
    "SERVICE_COLUMNS",
    "SERVICE_STAT_SUFFIXES",
    "SLOPolicy",
    "ServiceConfig",
    "ServiceReport",
    "WindowStats",
    "fixed_arrivals",
    "generate_arrivals",
    "peak_in_flight",
    "poisson_arrivals",
    "run_service",
    "service_rows",
    "summarize_windows",
]
