"""Compose an :class:`ExperimentSpec` from a declarative description.

This is the no-module path for new perturbation experiments: a TOML file
(or an equivalent dict) names the scenario composition, the sweep axis,
the protocol variants, and the workload — and :func:`compose_spec` turns
it into a runnable spec on the standard perturbation testbed
(:func:`repro.experiments.perturbed.build_testbed`), with rows flowing
through the same :class:`~repro.experiments.base.ExperimentResult` /
store pipeline as every registered experiment.

Example (``severity-sweep.toml``)::

    [experiment]
    id = "my-severity-sweep"
    title = "Outage severity over background flapping"
    tags = ["ext", "composed"]

    [sweep]
    column = "severity"
    values = [0.0, 0.5, 1.0]

    [[scenario]]
    family = "flapping"
    period = "30:30"
    probability = 0.5

    [[scenario]]
    family = "regional-outage"
    start = 90.0
    duration = 600.0
    severity = "$severity"       # substituted per sweep cell

    [variants]                   # optional; this is the default
    names = ["pastry", "mpil-ds", "mpil-nods"]
    rejoin = false               # interval-based MSPastry eviction/rejoin

    [workload]                   # optional
    spacing = 60.0               # seconds between lookups
    window = [0.33, 0.66]        # measure only this index fraction

Instead of the spaced-lookup ``[workload]``, a spec may carry a
``[service]`` table to run the open-loop service mode
(:mod:`repro.service`): sustained Poisson or fixed-rate traffic against
the perturbed overlay, reported per window with p50/p95/p99 latency,
throughput, in-flight depth, and SLO verdicts (one row per ``(cell,
variant, window)``; aggregation gains ``_p50/_p95/_p99`` columns)::

    [service]                    # all parameters optional
    rate = 2.0                   # arrivals/s (default: scale.service_rate)
    duration = 600.0             # seconds   (default: scale.service_duration)
    window = 60.0                # seconds   (default: scale.service_window)
    arrival = "poisson"          # or "fixed"
    insert_fraction = 0.1        # fraction of arrivals that are inserts
    slo_latency = 1.0            # per-window p99 bound, seconds
    slo_availability = 0.95      # per-window success-rate floor

Numeric service parameters may also be ``"$<sweep column>"``; MSPastry
always runs with interval-based eviction/rejoin plus probed views in
service mode (the ``rejoin`` flag applies to the lookup workload only).

A spec may also carry a ``[scale]`` table defining a custom rung: any flat
:class:`~repro.experiments.scales.Scale` field (``pastry_nodes``,
``perturbed_lookups``, ...), an optional ``base`` rung name to start from
(default: whatever scale the run is invoked with, so ``--scale smoke``
still shrinks everything the table doesn't pin), an optional ``name``, and
a nested ``[scale.budget]`` table with ``max_rss_mb``/``max_wall_s``
ceilings enforced at run time::

    [scale]
    base = "default"
    pastry_nodes = 2000
    perturbed_lookups = 400

    [scale.budget]
    max_wall_s = 600.0

Unknown scale fields fail at compose time with a one-line error listing
the valid ones.

then::

    from repro import api
    result = api.run(api.compose("severity-sweep.toml"), scale="smoke")

or, from the shell, ``mpil-experiments compose severity-sweep.toml``.

Scenario families and their parameters are those of the one table
:data:`repro.perturbation.scenario.SCENARIO_FAMILIES` (``mpil-experiments
scenarios <family>`` prints a family's parameters), and
:meth:`~repro.experiments.perturbed.PerturbationTestbed.process` lays each
over the testbed; multiple ``[[scenario]]`` tables compose through
:class:`~repro.perturbation.timeline.ScenarioTimeline`
(a node is online iff online under every composed process).  Any
parameter may be the string ``"$<sweep column>"`` to take the sweep
cell's value.  Scenario seeds derive from ``(seed, "compose", index,
family)`` — deliberately *not* from the axis value, so severity-style
sweeps stay nested (the affected set at severity 0.5 is a subset of the
one at 0.75) and curves read monotonically.
"""

from __future__ import annotations

import json
import math
import pathlib
import sys
from functools import partial
from typing import Any, Callable, Iterable, Mapping, Optional, Sequence, Union

from repro.errors import ConfigurationError, ExperimentError
from repro.experiments.base import success_percent
from repro.experiments.perturbed import (
    VARIANT_LABELS,
    PerturbationTestbed,
    build_stage,
    stage2_successes,
)
from repro.experiments.scales import BudgetSpec, Scale, get_scale
from repro.experiments.spec import ExperimentSpec, Pipeline, RunContext
from repro.perturbation.scenario import ScenarioFamily, get_family
from repro.perturbation.timeline import ScenarioTimeline
from repro.service.driver import (
    SERVICE_COLUMNS,
    SERVICE_STAT_SUFFIXES,
    ServiceConfig,
    service_rows,
)
from repro.service.windows import SLOPolicy
from repro.util.toml import tomllib

DEFAULT_VARIANTS = ("pastry", "mpil-ds", "mpil-nods")
DEFAULT_SPACING = 60.0


#: the [service] table's parameter schema; every parameter is optional
#: (scale presets supply rate/duration/window, :class:`ServiceConfig` /
#: :class:`SLOPolicy` defaults cover the rest)
_SERVICE_PARAMS: dict[str, type] = {
    "rate": float,
    "duration": float,
    "window": float,
    "arrival": str,
    "insert_fraction": float,
    "slo_latency": float,
    "slo_availability": float,
}


def _service_config(scale: Optional[Scale], **params: Any) -> ServiceConfig:
    """The ``[service]`` table's config object.

    ``scale`` supplies the run's rate/duration/window defaults.  At compose
    time there is no scale yet (``None``): a missing one of the three then
    takes a value that cannot fail (the largest finite duration holds any
    finite window), so only what the table says is judged.
    """
    if scale is None:
        duration = params.get("duration", sys.float_info.max)
        rate, window = params.get("rate", 1.0), params.get("window", duration)
    else:
        duration = params.get("duration", float(scale.service_duration))
        rate = params.get("rate", float(scale.service_rate))
        window = params.get("window", float(scale.service_window))
    defaults = SLOPolicy()
    return ServiceConfig(
        duration=duration,
        rate=rate,
        window=window,
        arrival=params.get("arrival", "poisson"),
        insert_fraction=params.get("insert_fraction", 0.0),
        slo=SLOPolicy(
            latency_p99=params.get("slo_latency", defaults.latency_p99),
            availability=params.get("slo_availability", defaults.availability),
        ),
    )


def load_spec_file(path: Union[str, pathlib.Path]) -> dict[str, Any]:
    """Parse a ``.toml`` (or ``.json``) spec description into a dict."""
    path = pathlib.Path(path)
    if not path.exists():
        raise ExperimentError(f"spec file {str(path)!r} does not exist")
    try:
        # TOML is UTF-8 by definition and JSON by convention; the locale
        # must not decide how a spec reads
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ExperimentError(f"cannot read spec file {str(path)!r}: {exc}") from None
    try:
        source = json.loads(text) if path.suffix == ".json" else tomllib.loads(text)
    except json.JSONDecodeError as exc:
        raise ExperimentError(f"malformed JSON in {str(path)!r}: {exc}") from None
    except tomllib.TOMLDecodeError as exc:
        raise ExperimentError(f"malformed TOML in {str(path)!r}: {exc}") from None
    if not isinstance(source, dict):
        raise ExperimentError(
            f"spec file {str(path)!r} must hold a table at top level, "
            f"found a {type(source).__name__}"
        )
    return source


def _is_list(value: Any) -> bool:
    """True for real list-like values; a bare string is *not* a list (it
    would be silently iterated character by character)."""
    return isinstance(value, Sequence) and not isinstance(value, (str, bytes))


def _require_list(value: Any, what: str) -> Sequence[Any]:
    if not _is_list(value):
        raise ExperimentError(f"{what} must be a list, got {value!r}")
    return value


def _require_float(value: Any, what: str) -> float:
    """``value`` as a finite float: ``nan`` and ``inf`` are TOML literals,
    and no parameter of a scenario, workload or service table means
    anything at either."""
    try:
        number = float(value)
    except (TypeError, ValueError):
        raise ExperimentError(f"{what} must be a number, got {value!r}") from None
    if not math.isfinite(number):
        raise ExperimentError(f"{what} must be finite, got {number!r}")
    return number


def _require_table(source: Mapping[str, Any], key: str) -> Mapping[str, Any]:
    value = source.get(key)
    if not isinstance(value, Mapping):
        raise ExperimentError(
            f"spec needs a [{key}] table; found {type(value).__name__ if value is not None else 'nothing'}"
        )
    return value


def _cell_params(
    schema: Mapping[str, type],
    table: Mapping[str, Any],
    what: str,
    column: str,
    cell: Any,
) -> dict[str, Any]:
    """One sweep cell's parameters from a parameter table: ``"$<column>"``
    placeholders take the cell's value and each parameter is coerced to its
    schema type."""
    params: dict[str, Any] = {}
    for name, value in table.items():
        if isinstance(value, str) and value.startswith("$"):
            if value[1:] != column:
                raise ExperimentError(
                    f"{what} references unknown sweep axis {value!r}; "
                    f"the sweep column is {column!r}"
                )
            value = cell
        if schema[name] is float:
            params[name] = _require_float(value, f"{what}: {name}")
        else:
            params[name] = str(value)
    return params


def _check_table(
    schema: Mapping[str, type],
    optional: frozenset[str],
    config: Callable[..., Any],
    table: Mapping[str, Any],
    what: str,
    column: str,
    axis_values: Sequence[Any],
) -> None:
    """Validate one parameter table fully at compose time: parameter names,
    required parameters, axis references, numeric coercibility and value
    ranges, the last three for *every* sweep value — so a bad description
    never gets as far as building a testbed, let alone measuring the cells
    before the bad one."""
    unknown = set(table) - set(schema)
    if unknown:
        raise ExperimentError(
            f"unknown parameter(s) {sorted(unknown)} for {what}; "
            f"allowed: {sorted(schema)}"
        )
    missing = set(schema) - optional - set(table)
    if missing:
        raise ExperimentError(
            f"missing required parameter(s) {sorted(missing)} for {what}"
        )
    for cell in axis_values:
        try:
            config(**_cell_params(schema, table, what, column, cell))
        except ConfigurationError as exc:
            raise ExperimentError(str(exc)) from None


_BUDGET_KEYS = ("max_rss_mb", "max_wall_s")


def _compose_scale_transform(
    table: Mapping[str, Any],
) -> Callable[[Scale], Scale]:
    """Turn a ``[scale]`` table into the run-time scale hook.

    Validates eagerly: the base rung must resolve, every field must be a
    known flat scale field (``Scale.evolve`` raises the one-line error
    listing them), and the budget values must pass ``BudgetSpec``'s
    checks — all before a testbed is ever built.
    """
    base_name = table.get("base")
    new_name = table.get("name")
    overrides: dict[str, Any] = {
        key: tuple(value) if _is_list(value) else value
        for key, value in table.items()
        if key not in ("base", "name", "budget")
    }
    budget_table = table.get("budget")
    if budget_table is not None:
        if not isinstance(budget_table, Mapping):
            raise ExperimentError("[scale.budget] must be a table")
        unknown = set(budget_table) - set(_BUDGET_KEYS)
        if unknown:
            raise ExperimentError(
                f"unknown parameter(s) {sorted(unknown)} in the "
                f"[scale.budget] table; allowed: {list(_BUDGET_KEYS)}"
            )
        overrides["budget"] = BudgetSpec(**budget_table)

    def transform(resolved: Scale) -> Scale:
        start = get_scale(str(base_name)) if base_name is not None else resolved
        evolved = start.evolve(**overrides) if overrides else start
        if new_name is not None:
            evolved = evolved.evolve(name=str(new_name))
        return evolved

    # probe the hook now so a bad table fails at compose time
    transform(get_scale("default"))
    return transform


def compose_spec(source: Mapping[str, Any]) -> ExperimentSpec:
    """Build a runnable :class:`ExperimentSpec` from a declarative dict.

    See the module docstring for the schema.  All validation happens here,
    eagerly, so a bad description fails at compose time with a one-line
    :class:`~repro.errors.ExperimentError` — not halfway through a sweep.
    """
    experiment = _require_table(source, "experiment")
    experiment_id = str(experiment.get("id", "")).strip()
    title = str(experiment.get("title", "")).strip()
    if not experiment_id or not title:
        raise ExperimentError("the [experiment] table needs non-empty 'id' and 'title'")
    tags = tuple(
        str(tag) for tag in _require_list(experiment.get("tags", ()), "experiment.tags")
    )

    sweep = _require_table(source, "sweep")
    column = str(sweep.get("column", "")).strip()
    values = sweep.get("values")
    if not column or not _is_list(values) or not values:
        raise ExperimentError(
            "the [sweep] table needs a 'column' name and a non-empty 'values' list"
        )
    axis_values = tuple(values)

    scenarios = source.get("scenario")
    if not _is_list(scenarios) or not scenarios:
        raise ExperimentError("spec needs at least one [[scenario]] table")
    #: (family, its parameter table) per [[scenario]], in file order
    scenario_tables: list[tuple[ScenarioFamily, Mapping[str, Any]]] = []
    for table in scenarios:
        if not isinstance(table, Mapping) or "family" not in table:
            raise ExperimentError("every [[scenario]] table needs a 'family' key")
        name = str(table["family"])
        try:
            family = get_family(name)
        except ConfigurationError as exc:
            raise ExperimentError(str(exc)) from None
        params = {key: value for key, value in table.items() if key != "family"}
        _check_table(
            family.schema,
            family.optional,
            family.config,
            params,
            f"scenario family {name!r}",
            column,
            axis_values,
        )
        scenario_tables.append((family, params))

    variants_table = source.get("variants", {})
    if not isinstance(variants_table, Mapping):
        raise ExperimentError("[variants] must be a table")
    variants = tuple(
        str(v)
        for v in _require_list(
            variants_table.get("names", DEFAULT_VARIANTS), "variants.names"
        )
    )
    if not variants:
        raise ExperimentError(
            f"variants.names needs at least one of {sorted(VARIANT_LABELS)}"
        )
    unknown_variants = set(variants) - set(VARIANT_LABELS)
    if unknown_variants:
        raise ExperimentError(
            f"unknown variant(s) {sorted(unknown_variants)}; "
            f"choose from {sorted(VARIANT_LABELS)}"
        )
    rejoin = variants_table.get("rejoin", False)
    if not isinstance(rejoin, bool):
        raise ExperimentError(
            f"variants.rejoin must be true or false, got {rejoin!r}"
        )

    workload = source.get("workload", {})
    if not isinstance(workload, Mapping):
        raise ExperimentError("[workload] must be a table")
    spacing = _require_float(
        workload.get("spacing", DEFAULT_SPACING), "workload spacing"
    )
    if spacing <= 0:
        raise ExperimentError(f"workload spacing must be positive, got {spacing:g}")
    window = workload.get("window")
    if window is not None:
        if not _is_list(window) or len(window) != 2:
            raise ExperimentError(
                f"workload window must be [lo, hi] fractions with "
                f"0 <= lo < hi <= 1, got {window!r}"
            )
        lo_frac = _require_float(window[0], "workload window")
        hi_frac = _require_float(window[1], "workload window")
        if not 0.0 <= lo_frac < hi_frac <= 1.0:
            raise ExperimentError(
                f"workload window must be [lo, hi] fractions with "
                f"0 <= lo < hi <= 1, got {window!r}"
            )
        window = (lo_frac, hi_frac)

    raw_scale = source.get("scale")
    scale_transform: Optional[Callable[[Scale], Scale]] = None
    if raw_scale is not None:
        if not isinstance(raw_scale, Mapping):
            raise ExperimentError("[scale] must be a table")
        scale_transform = _compose_scale_transform(raw_scale)

    service_table = source.get("service")
    if service_table is not None:
        if not isinstance(service_table, Mapping):
            raise ExperimentError("[service] must be a table")
        if isinstance(workload, Mapping) and workload:
            raise ExperimentError(
                "give either a [workload] table (spaced lookups) or a "
                "[service] table (open-loop traffic), not both"
            )
        _check_table(
            _SERVICE_PARAMS,
            frozenset(_SERVICE_PARAMS),
            partial(_service_config, None),
            service_table,
            "the [service] table",
            column,
            axis_values,
        )

    def cells(ctx: RunContext, testbed: PerturbationTestbed) -> Iterable[Any]:
        return axis_values

    def _lookup_indices(num_lookups: int) -> range:
        if window is None:
            return range(num_lookups)
        lo = int(num_lookups * window[0])
        hi = max(lo + 1, int(num_lookups * window[1]))
        return range(lo, hi)

    def _cell_schedule(ctx: RunContext, testbed: PerturbationTestbed, cell: Any) -> Any:
        processes = [
            testbed.process(
                family.name,
                (ctx.seed, "compose", index, family.name),
                **_cell_params(
                    family.schema,
                    table,
                    f"scenario family {family.name!r}",
                    column,
                    cell,
                ),
            )
            for index, (family, table) in enumerate(scenario_tables)
        ]
        return processes[0] if len(processes) == 1 else ScenarioTimeline(processes)

    def measure(ctx: RunContext, testbed: PerturbationTestbed, cell: Any) -> Iterable[tuple]:
        schedule = _cell_schedule(ctx, testbed, cell)
        indices = _lookup_indices(ctx.scale.perturbed_lookups)
        rates = (
            success_percent(
                stage2_successes(
                    testbed,
                    variant,
                    schedule,
                    indices,
                    spacing,
                    (ctx.seed, "compose", "views", variant),
                    (ctx.seed, "compose", "rejoin", variant) if rejoin else None,
                )
            )
            for variant in variants
        )
        return [(cell, *rates)]

    def measure_service(
        ctx: RunContext, testbed: PerturbationTestbed, cell: Any
    ) -> Iterable[tuple]:
        # only wired into the pipeline when the [service] table exists
        assert service_table is not None
        schedule = _cell_schedule(ctx, testbed, cell)
        config = _service_config(
            ctx.scale,
            **_cell_params(
                _SERVICE_PARAMS, service_table, "the [service] table", column, cell
            ),
        )
        # one arrival plan for every cell (the sweep varies only the
        # perturbation or substituted service parameters), per-cell
        # rejoin/probing noise for the Pastry variants
        rows = service_rows(
            testbed,
            schedule,
            config,
            seed=(ctx.seed, "compose-service"),
            rejoin_seed=(ctx.seed, "compose-service", cell),
            variants=variants,
        )
        return [(cell, *row) for row in rows]

    summary = " + ".join(
        "{}({})".format(family.name, ", ".join(f"{k}={v}" for k, v in params.items()))
        for family, params in scenario_tables
    )
    if service_table is not None:
        service_summary = (
            ", ".join(f"{k}={v}" for k, v in sorted(service_table.items()))
            or "scale defaults"
        )
        notes = (
            f"composed scenario: {summary}; open-loop service traffic "
            f"({service_summary}); windows keyed by arrival; MSPastry with "
            f"interval-based eviction/rejoin"
        )
        pipeline = Pipeline(
            columns=(column, *SERVICE_COLUMNS),
            key_columns=(column, "variant", "window"),
            build=build_stage,
            cells=cells,
            measure=measure_service,
            notes=notes,
            stat_suffixes=SERVICE_STAT_SUFFIXES,
        )
    else:
        notes = (
            f"composed scenario: {summary}; lookups every {spacing:g}s"
            + (f"; window {window[0]:g}..{window[1]:g} of the sequence" if window else "")
            + ("; MSPastry with interval-based eviction/rejoin" if rejoin else "")
        )
        pipeline = Pipeline(
            columns=(column, *(VARIANT_LABELS[v] for v in variants)),
            key_columns=(column,),
            build=build_stage,
            cells=cells,
            measure=measure,
            notes=notes,
        )

    return ExperimentSpec(
        experiment_id=experiment_id,
        title=title,
        pipeline=pipeline,
        tags=tags,
        figure=None,
        scenario_family=None,
        scale_transform=scale_transform,
    )
