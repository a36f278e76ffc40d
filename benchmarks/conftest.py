"""Benchmark configuration.

Each benchmark regenerates one of the paper's figures or tables and prints
the resulting rows (compare them against EXPERIMENTS.md and the paper).
Experiments are expensive end-to-end simulations, so every benchmark runs
exactly once (``pedantic`` with one round) — the interesting output is the
table and the wall-clock time, not statistical timing jitter.

Every result is persisted through the result store, so each benchmark
leaves a JSON replicate plus manifest provenance (git revision,
wall-clock, event counts) behind, and the printed table is re-read from
the artifact — what you see is exactly what was stored.  The benchmark
clock wraps only ``run_experiment`` itself; store I/O happens after the
measured region, so timings stay comparable across store changes.

Scale selection: set ``REPRO_BENCH_SCALE`` to ``smoke``, ``default`` or
``paper`` (default: ``default``).  ``paper`` reproduces the published
parameters and can take hours in pure Python.  ``REPRO_BENCH_SEED`` picks
the replicate seed and ``REPRO_BENCH_RESULTS`` the store root (default:
``results/bench``).
"""

from __future__ import annotations

import os
import pathlib
import time

import pytest

from repro.experiments.registry import run_experiment
from repro.experiments.store import ResultStore
from repro.sim.engine import events_processed_total
from repro.telemetry import reset_runtime_metrics


@pytest.fixture(scope="session")
def bench_scale() -> str:
    return os.environ.get("REPRO_BENCH_SCALE", "default")


@pytest.fixture(scope="session")
def bench_seed() -> int:
    return int(os.environ.get("REPRO_BENCH_SEED", "0"))


@pytest.fixture(scope="session")
def bench_store() -> ResultStore:
    root = os.environ.get("REPRO_BENCH_RESULTS", os.path.join("results", "bench"))
    return ResultStore(pathlib.Path(root))


@pytest.fixture()
def run_and_print(benchmark, bench_scale, bench_seed, bench_store):
    """Run one experiment exactly once under the benchmark, persist it to
    the result store, and print the table reloaded from the artifact."""

    def runner(experiment_id: str):
        reset_runtime_metrics()
        started = time.perf_counter()
        fresh = benchmark.pedantic(
            run_experiment,
            args=(experiment_id,),
            kwargs={"scale": bench_scale, "seed": bench_seed},
            rounds=1,
            iterations=1,
        )
        wall_clock = time.perf_counter() - started
        bench_store.save(
            fresh,
            seed=bench_seed,
            wall_clock=wall_clock,
            events_processed=events_processed_total(),
        )
        result = bench_store.load(experiment_id, bench_scale, bench_seed)
        print()
        print(result.table())
        print(f"(stored: {bench_store.seed_path(experiment_id, bench_scale, bench_seed)})")
        return result

    return runner
