"""The profiling harness: time any registered experiment, emit BENCH JSON.

:func:`profile_experiment` wraps one registered experiment in
``time.perf_counter`` sampling (several timed repeats, best and mean
wall-clock) plus an optional ``cProfile`` pass for the top-k cumulative
functions, and reports throughput as **events per second** — where an
event is one discrete simulation step as counted by
:mod:`repro.sim.engine` (scheduler callbacks, synchronous MPIL message
hops, Pastry routing steps).  Event counts are required to be identical
across repeats: the simulations are deterministic functions of
``(experiment, scale, seed)``, so a drifting count means hidden
nondeterminism and raises immediately.

By default the measurement is *warm*: an untimed warmup run primes imports
and the process-level construction caches, so the timed repeats measure
simulation throughput rather than one-off setup.  ``warm=False`` clears
every construction cache before each repeat to measure cold end-to-end
cost instead.

Results serialise to ``BENCH_<id>.json`` via :func:`write_bench`; the
committed ``benchmarks/baseline.json`` and the CI gate consume them
through :mod:`repro.perf.regression`.
"""

from __future__ import annotations

import cProfile
import dataclasses
import json
import pathlib
import pstats
import time
from typing import Any, Mapping, Optional, Union

from repro.errors import ExperimentError
from repro.experiments.budget import current_rss_mb
from repro.experiments.registry import get_spec, run_experiment
from repro.experiments.scales import Scale, get_scale
from repro.experiments.store import git_revision
from repro.sim.engine import events_processed_total
from repro.telemetry import reset_runtime_metrics
from repro.util.cache import clear_all_caches

#: bumped on any incompatible BENCH_<id>.json layout change; version 2
#: added the scale-budget fields and peak RSS (version-1 files still load,
#: with those fields absent)
SCHEMA_VERSION = 2


@dataclasses.dataclass(frozen=True)
class HotSpot:
    """One entry of the cProfile top-k (cumulative-time order)."""

    location: str  #: ``path:lineno(function)``, repo-relative where possible
    calls: int
    total_time: float  #: seconds inside the function itself
    cumulative_time: float  #: seconds including callees

    def to_dict(self) -> dict[str, Any]:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "HotSpot":
        return cls(
            location=str(payload["location"]),
            calls=int(payload["calls"]),
            total_time=float(payload["total_time"]),
            cumulative_time=float(payload["cumulative_time"]),
        )


@dataclasses.dataclass(frozen=True)
class BenchResult:
    """One experiment's measured performance (the BENCH file payload)."""

    experiment_id: str
    scale: str
    seed: int
    repeats: int
    warm: bool
    wall_clock_best: float  #: fastest timed repeat, seconds
    wall_clock_mean: float  #: mean over timed repeats, seconds
    events_processed: int  #: per run (identical across repeats by contract)
    events_per_sec: float  #: events_processed / wall_clock_best
    hotspots: tuple[HotSpot, ...]
    git_rev: str
    schema_version: int = SCHEMA_VERSION
    #: largest resident set any sample saw during the measured runs
    #: (``None`` off-Linux, and in version-1 files)
    peak_rss_mb: Optional[float] = None
    #: the profiled scale's budget ceilings, for the bench gate
    #: (``None`` = the scale is unbudgeted)
    budget_max_rss_mb: Optional[float] = None
    budget_max_wall_s: Optional[float] = None

    def summary(self) -> str:
        """One human line: id, throughput, wall clock."""
        return (
            f"{self.experiment_id:18s} {self.events_per_sec:12.1f} events/s  "
            f"({self.events_processed} events, best {self.wall_clock_best * 1e3:.1f} ms "
            f"over {self.repeats} repeats, {'warm' if self.warm else 'cold'})"
        )

    def to_dict(self) -> dict[str, Any]:
        payload = dataclasses.asdict(self)
        payload["hotspots"] = [spot.to_dict() for spot in self.hotspots]
        return payload

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "BenchResult":
        version = int(payload.get("schema_version", 0))
        if not 1 <= version <= SCHEMA_VERSION:
            raise ExperimentError(
                f"BENCH schema version {version} unsupported "
                f"(this build reads versions 1..{SCHEMA_VERSION})"
            )

        def opt_float(key: str) -> Optional[float]:
            value = payload.get(key)
            return None if value is None else float(value)

        return cls(
            experiment_id=str(payload["experiment_id"]),
            scale=str(payload["scale"]),
            seed=int(payload["seed"]),
            repeats=int(payload["repeats"]),
            warm=bool(payload["warm"]),
            wall_clock_best=float(payload["wall_clock_best"]),
            wall_clock_mean=float(payload["wall_clock_mean"]),
            events_processed=int(payload["events_processed"]),
            events_per_sec=float(payload["events_per_sec"]),
            hotspots=tuple(
                HotSpot.from_dict(spot) for spot in payload["hotspots"]
            ),
            git_rev=str(payload["git_rev"]),
            schema_version=version,
            peak_rss_mb=opt_float("peak_rss_mb"),
            budget_max_rss_mb=opt_float("budget_max_rss_mb"),
            budget_max_wall_s=opt_float("budget_max_wall_s"),
        )


def _short_location(filename: str, lineno: int, function: str) -> str:
    """Compress an absolute stats path to its last meaningful components."""
    if filename.startswith("~") or filename == "<built-in>":
        return f"<built-in>({function})"
    parts = pathlib.PurePath(filename).parts
    for anchor in ("repro", "site-packages"):
        if anchor in parts:
            index = parts.index(anchor)
            filename = "/".join(parts[index:])
            break
    else:
        filename = "/".join(parts[-2:])
    return f"{filename}:{lineno}({function})"


def _collect_hotspots(profile: cProfile.Profile, top: int) -> tuple[HotSpot, ...]:
    stats = pstats.Stats(profile)
    entries = sorted(
        stats.stats.items(),  # type: ignore[attr-defined]
        key=lambda item: item[1][3],
        reverse=True,
    )
    hotspots: list[HotSpot] = []
    for (filename, lineno, function), row in entries[:top]:
        _cc, ncalls, tottime, cumtime = row[0], row[1], row[2], row[3]
        hotspots.append(
            HotSpot(
                location=_short_location(filename, lineno, function),
                calls=int(ncalls),
                total_time=round(float(tottime), 6),
                cumulative_time=round(float(cumtime), 6),
            )
        )
    return tuple(hotspots)


def profile_experiment(
    experiment_id: str,
    scale: Union[str, Scale] = "smoke",
    seed: int = 0,
    repeats: int = 3,
    top: int = 10,
    warm: bool = True,
    with_profile: bool = True,
) -> BenchResult:
    """Measure one experiment's throughput; see the module docstring.

    The cProfile pass runs *after* the timed repeats (instrumentation
    slows function-call-heavy code several-fold, so it must never share a
    clock with them).  The resolved scale's budget ceilings and the peak
    resident set observed across the timed repeats land in the result so
    the bench gate can check measurements against the budget.
    """
    get_spec(experiment_id)  # raises on unknown ids
    resolved = get_scale(scale)  # raises on unknown scales
    if repeats < 1:
        raise ExperimentError(f"repeats must be >= 1, got {repeats}")
    if top < 0:
        raise ExperimentError(f"top must be >= 0, got {top}")

    if warm:
        run_experiment(experiment_id, scale=resolved, seed=seed)  # prime caches

    walls: list[float] = []
    counts: list[int] = []
    peak_rss: Optional[float] = None
    for _ in range(repeats):
        if not warm:
            clear_all_caches()
        reset_runtime_metrics()
        started = time.perf_counter()
        run_experiment(experiment_id, scale=resolved, seed=seed)
        walls.append(time.perf_counter() - started)
        counts.append(events_processed_total())
        rss = current_rss_mb()
        if rss is not None and (peak_rss is None or rss > peak_rss):
            peak_rss = rss
    if len(set(counts)) != 1:
        raise ExperimentError(
            f"{experiment_id} executed varying event counts across repeats "
            f"({counts}); the run is not deterministic — fix that before "
            f"trusting any measurement of it"
        )

    hotspots: tuple[HotSpot, ...] = ()
    if with_profile and top > 0:
        if not warm:
            clear_all_caches()  # the hotspot pass must see the same cold
            # construction work the timed repeats measured
        profile = cProfile.Profile()
        profile.enable()
        run_experiment(experiment_id, scale=resolved, seed=seed)
        profile.disable()
        hotspots = _collect_hotspots(profile, top)

    best = min(walls)
    return BenchResult(
        experiment_id=experiment_id,
        scale=resolved.name,
        seed=seed,
        repeats=repeats,
        warm=warm,
        wall_clock_best=round(best, 6),
        wall_clock_mean=round(sum(walls) / len(walls), 6),
        events_processed=counts[0],
        events_per_sec=round(counts[0] / best, 3) if best > 0 else 0.0,
        hotspots=hotspots,
        git_rev=git_revision(),
        peak_rss_mb=None if peak_rss is None else round(peak_rss, 1),
        budget_max_rss_mb=resolved.budget.max_rss_mb,
        budget_max_wall_s=resolved.budget.max_wall_s,
    )


def bench_path(
    out_dir: Union[str, pathlib.Path],
    experiment_id: str,
    scale: Optional[str] = None,
) -> pathlib.Path:
    """Where :func:`write_bench` puts one experiment's BENCH file.

    ``scale`` qualifies the name (``BENCH_<id>@<scale>.json``) so
    multi-rung profiling runs keep one file per rung; without it the
    historical ``BENCH_<id>.json`` name is used.  Both spellings match the
    CI artifact glob ``BENCH_*.json``.
    """
    suffix = "" if scale is None else f"@{scale}"
    return pathlib.Path(out_dir) / f"BENCH_{experiment_id}{suffix}.json"


def write_bench(
    result: BenchResult,
    out_dir: Union[str, pathlib.Path],
    qualify_scale: bool = False,
) -> pathlib.Path:
    """Persist one bench result as ``<out_dir>/BENCH_<id>.json`` (or the
    scale-qualified name when ``qualify_scale`` is set)."""
    path = bench_path(
        out_dir, result.experiment_id, scale=result.scale if qualify_scale else None
    )
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(result.to_dict(), sort_keys=True, indent=2) + "\n")
    return path


def load_bench(path: Union[str, pathlib.Path]) -> BenchResult:
    """Reload a BENCH file written by :func:`write_bench`."""
    path = pathlib.Path(path)
    if not path.exists():
        raise ExperimentError(f"no BENCH file at {path}")
    return BenchResult.from_dict(json.loads(path.read_text()))
