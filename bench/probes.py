"""Isolated measurements for the traced run.

Metrics that a span cannot give cleanly — a memo hit against a miss, one
heap operation at a known depth, a vectorised mask against a point query,
a resume plan, the CLI's start-up — are measured here by calling the
layer's public function directly on the workload's own inputs, with the
tracer uninstalled.  Each probe returns ``{metric name: value}``.
"""

from __future__ import annotations

import os
import pathlib
import random
import statistics
import subprocess
import sys
import time
from typing import Any, Callable

from repro import api
from repro.core import MPILNetwork
from repro.experiments import RunContext
from repro.overlay import power_law_graph
from repro.perturbation import (
    FlappingConfig,
    FlappingSchedule,
    RegionalOutage,
    RegionalOutageConfig,
    ScenarioTimeline,
)
from repro.sim import EventScheduler
from repro.telemetry.sinks import write_jsonl

from bench.clock import SpeedMeter
from bench.workloads import PassResult, ServeMpil, Static, SweepSmoke, Workload

SRC_DIR = pathlib.Path(__file__).resolve().parent.parent / "src"


def _per_call(fn: Callable[[], Any], calls: int) -> float:
    """Mean seconds per call of ``fn`` over ``calls`` back-to-back calls."""
    started = time.perf_counter()
    for _ in range(calls):
        fn()
    return (time.perf_counter() - started) / calls


def score_memo(workload: Static) -> dict[str, float]:
    """``scores_with_self`` on fresh ``(node, target)`` pairs, then on the
    same pairs again (the memo is per table, so hot passes hit it)."""
    n = workload.sizes["static_node_counts"][0]
    network = MPILNetwork(power_law_graph(n, seed=workload.seed), seed=workload.seed)
    table = network.metric_table
    rng = random.Random(workload.seed)
    targets = [network.random_object_id(rng) for _ in range(20)]
    pairs = [(rng.randrange(n), target) for target in targets for _ in range(100)]
    timings = []
    for _ in range(2):
        started = time.perf_counter()
        for node, target in pairs:
            table.scores_with_self(node, target)
        timings.append((time.perf_counter() - started) / len(pairs))
    return {
        "core.metric.scores_miss_us": timings[0] * 1e6,
        "core.metric.scores_hit_us": timings[1] * 1e6,
    }


def pipeline_stages(spec: Any, scale: Any, seed: int) -> tuple[dict[str, float], Any]:
    """The spec's own ``build`` and ``cells``/``measure`` stages, called
    from outside; also returns what ``build`` built."""
    resolved = api.get_scale(scale)
    if spec.scale_transform is not None:
        resolved = spec.scale_transform(resolved)
    ctx = RunContext(scale=resolved, seed=seed)
    pipeline = spec.pipeline
    started = time.perf_counter()
    built = pipeline.build(ctx)
    build_s = time.perf_counter() - started
    started = time.perf_counter()
    for cell in pipeline.cells(ctx, built):
        list(pipeline.measure(ctx, built, cell))
    measure_s = time.perf_counter() - started
    return (
        {"experiments.spec.build_s": build_s, "experiments.spec.measure_s": measure_s},
        built,
    )


def flapping(num_nodes: int, period: str, probability: float, seed: int) -> dict[str, float]:
    """Scalar ``is_online`` against the population-level ``online_mask``."""
    schedule = FlappingSchedule(
        FlappingConfig.from_label(period, probability), num_nodes, seed=(seed, "bench-probe")
    )
    rng = random.Random(seed)
    horizon = 20 * schedule.config.cycle
    queries = [(rng.randrange(num_nodes), rng.uniform(0.0, horizon)) for _ in range(20_000)]
    started = time.perf_counter()
    for node, when in queries:
        schedule.is_online(node, when)
    point = (time.perf_counter() - started) / len(queries)
    times = iter([rng.uniform(0.0, horizon) for _ in range(200)])
    return {
        "perturbation.flapping.is_online_ns": point * 1e9,
        "perturbation.flapping.online_mask_us": _per_call(
            lambda: schedule.online_mask(next(times)), 200
        )
        * 1e6,
    }


def timeline(workload: ServeMpil, testbed: Any) -> dict[str, float]:
    """The serve workload's composed schedule: outage and timeline masks,
    and the timeline's point query."""
    sizes = workload.sizes
    n = testbed.pastry.n
    flap = FlappingSchedule(
        FlappingConfig.from_label("30:30", 0.5), n, seed=(workload.seed, "bench-probe")
    )
    outage = RegionalOutage(
        testbed.regions,
        RegionalOutageConfig(
            start=sizes["outage_start"], duration=sizes["outage_duration"], severity=0.5
        ),
        seed=(workload.seed, "bench-probe"),
    )
    composed = ScenarioTimeline([flap, outage])
    rng = random.Random(workload.seed)
    duration = sizes["duration"]
    queries = [(rng.randrange(n), rng.uniform(0.0, duration)) for _ in range(20_000)]
    started = time.perf_counter()
    for node, when in queries:
        composed.is_online(node, when)
    point = (time.perf_counter() - started) / len(queries)
    # distinct instants: the timeline memoises the last one it was asked
    outage_times = iter([rng.uniform(0.0, duration) for _ in range(200)])
    composed_times = iter([rng.uniform(0.0, duration) for _ in range(200)])
    return {
        "perturbation.timeline.is_online_ns": point * 1e9,
        "perturbation.outage.online_mask_us": _per_call(
            lambda: outage.online_mask(next(outage_times)), 200
        )
        * 1e6,
        "perturbation.timeline.online_mask_us": _per_call(
            lambda: composed.online_mask(next(composed_times)), 200
        )
        * 1e6,
    }


def heap(depth: int, seed: int) -> dict[str, float]:
    """One ``post`` plus one pop on a scheduler held at ``depth`` pending
    events (the depth the traced pass peaked at)."""
    depth = max(1, depth)
    engine = EventScheduler()
    rng = random.Random(seed)

    def nothing() -> None:
        pass

    for _ in range(depth):
        engine.post(rng.uniform(0.0, 1000.0), nothing)
    pairs = 20_000
    delays = [rng.uniform(0.0, 1000.0) for _ in range(pairs)]
    started = time.perf_counter()
    for delay in delays:
        engine.post(engine.now + delay, nothing)
        engine.step()
    return {"sim.engine.post_pop_ns": (time.perf_counter() - started) / pairs * 1e9}


def telemetry(
    workload: Workload, meter: SpeedMeter, untraced_wall_s: float, ops: int, out_dir: pathlib.Path
) -> dict[str, float]:
    """One pass under the program's own span recording (``api.telemetry``)
    against the same pass without (both in calibrated seconds): ROADMAP's
    off-vs-on row."""
    if isinstance(workload, ServeMpil):
        runs = [(workload.spec, "default")]
    else:
        runs = [(name, workload.scale_name()) for name in workload.experiments]  # type: ignore[attr-defined]
    spans = []
    on_wall_s = 0.0
    for seed in workload.api_seeds():
        for experiment, scale in runs:
            traced, _raw, calibrated = meter.timed(
                api.telemetry, experiment, scale=scale, seed=seed, max_spans=None
            )
            on_wall_s += calibrated
            spans.extend(traced.spans)
    started = time.perf_counter()
    write_jsonl(spans, out_dir / f"telemetry-{workload.name}-{workload.seed}.jsonl")
    export_s = time.perf_counter() - started
    return {
        "telemetry.spans_on_ratio": on_wall_s / untraced_wall_s,
        "telemetry.spans_per_op": len(spans) / max(1, ops),
        "telemetry.export_ms": export_s * 1e3,
    }


def sweep_runtime(workload: SweepSmoke, untraced: PassResult) -> dict[str, float]:
    """The same task list without a store, the resume plan over a complete
    store, and what each child re-pays over a warm in-process run."""
    tasks = workload.tasks()
    started = time.perf_counter()
    workload.sweep(None)
    in_memory_s = time.perf_counter() - started
    assert workload.last_store is not None
    started = time.perf_counter()
    report = workload.sweep(workload.last_store, resume=True)
    resume_s = time.perf_counter() - started
    if len(report.skipped) != len(tasks) or report.outcomes:
        raise RuntimeError(
            f"resume over a complete store re-ran {len(report.outcomes)} task(s)"
        )
    warm: dict[tuple, float] = {}
    for experiment, scale, seed in tasks:
        api.run(experiment, scale=scale, seed=seed)
        started = time.perf_counter()
        api.run(experiment, scale=scale, seed=seed)
        warm[(experiment, scale, seed)] = time.perf_counter() - started
    cold = [
        outcome.wall_clock - warm[outcome.task] for outcome in untraced.detail["outcomes"]
    ]
    return {
        "experiments.runtime.inmemory_tasks_per_s": len(tasks) / in_memory_s,
        "experiments.ledger.resume_plan_ms": resume_s * 1e3,
        "experiments.runtime.child_cold_ms": statistics.median(cold) * 1e3,
    }


def cli_startup(repeats: int) -> dict[str, float]:
    """``python -m repro.experiments.cli list`` in a fresh process."""
    samples = []
    for _ in range(repeats):
        started = time.perf_counter()
        subprocess.run(
            [sys.executable, "-m", "repro.experiments.cli", "list"],
            check=True,
            stdout=subprocess.DEVNULL,
            env=dict(os.environ, PYTHONPATH=str(SRC_DIR)),
            timeout=120,
        )
        samples.append(time.perf_counter() - started)
    return {"experiments.cli.startup_ms": statistics.median(samples) * 1e3}


def run_for(
    workload: Workload,
    meter: SpeedMeter,
    baseline: PassResult,
    baseline_wall_s: float,
    peak_pending: int,
    out_dir: pathlib.Path,
) -> dict[str, float]:
    """Every probe that applies to ``workload``, on its own inputs."""
    measured: dict[str, float] = {}
    if isinstance(workload, SweepSmoke):
        measured.update(sweep_runtime(workload, baseline))
    else:
        if isinstance(workload, ServeMpil):
            spec, scale = workload.spec, "default"
        else:
            spec = api.get(workload.experiments[0])  # type: ignore[attr-defined]
            scale = workload.scale_name()  # type: ignore[attr-defined]
        stages, built = pipeline_stages(spec, scale, workload.api_seeds()[0])
        measured.update(stages)
        if isinstance(workload, Static):
            measured.update(score_memo(workload))
        elif isinstance(workload, ServeMpil):
            measured.update(flapping(built.pastry.n, "30:30", 0.5, workload.seed))
            measured.update(timeline(workload, built))
            measured.update(heap(peak_pending, workload.seed))
        else:
            measured.update(flapping(built.pastry.n, "30:30", 0.6, workload.seed))
        measured.update(telemetry(workload, meter, baseline_wall_s, baseline.ops, out_dir))
    measured.update(cli_startup(repeats=1 if workload.quick else 3))
    return measured
