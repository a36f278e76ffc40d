"""Experiment harness: declarative specs, a decorator registry, a CLI.

Every experiment is an :class:`~repro.experiments.spec.ExperimentSpec` —
metadata plus a pipeline of pluggable stages (overlay/testbed build,
sweep cells, measurement) — registered through the
:func:`~repro.experiments.registry.experiment` decorator::

    @experiment(id="fig9", title=..., tags=("figure", "static"), figure="Figure 9")
    def spec() -> Pipeline: ...

Specs can also be *composed* from a TOML/dict description at runtime
(:mod:`repro.experiments.compose`), no module required.  The high-level
facade is :mod:`repro.api` (``run``, ``sweep``, ``compose``,
``list_experiments``); the shell front door is the CLI::

    mpil-experiments list --tags ext
    mpil-experiments run fig9 tab1 --scale default
    mpil-experiments sweep fig9 tab1 --seeds 0..9 --jobs 4
    mpil-experiments compose my-sweep.toml --scale smoke

Sweeps persist per-seed JSON replicates plus mean/stdev/ci95 aggregates
through :class:`~repro.experiments.store.ResultStore` (see
:mod:`repro.experiments.runner` and :mod:`repro.experiments.store`).
"""

from repro.experiments.base import ExperimentResult
from repro.experiments.budget import BudgetGuard
from repro.experiments.registry import (
    all_experiment_ids,
    experiment,
    get_spec,
    list_experiments,
    register,
    run_experiment,
    unregister,
)
from repro.experiments.runner import SweepReport, SweepSpec, parse_seeds, run_sweep
from repro.experiments.scales import (
    SCALES,
    BudgetSpec,
    Scale,
    all_scales,
    available_scales,
    get_scale,
    register_scale,
    unregister_scale,
)
from repro.experiments.spec import ExperimentSpec, Pipeline, RunContext
from repro.experiments.store import ResultStore, aggregate_results

__all__ = [
    "BudgetGuard",
    "BudgetSpec",
    "ExperimentResult",
    "ExperimentSpec",
    "Pipeline",
    "ResultStore",
    "RunContext",
    "SCALES",
    "Scale",
    "SweepReport",
    "SweepSpec",
    "aggregate_results",
    "all_experiment_ids",
    "all_scales",
    "available_scales",
    "experiment",
    "get_scale",
    "get_spec",
    "list_experiments",
    "parse_seeds",
    "register",
    "register_scale",
    "run_experiment",
    "run_sweep",
    "unregister",
    "unregister_scale",
]
