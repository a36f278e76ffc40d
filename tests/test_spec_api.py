"""Tests for the declarative experiment API: ExperimentSpec pipelines, the
decorator registry and its metadata, the TOML/dict compose path, and the
``repro.api`` facade."""

from __future__ import annotations

import ast
import json
import pathlib

import pytest

from repro import api
from repro.errors import ExperimentError
from repro.experiments import (
    ExperimentResult,
    ExperimentSpec,
    Pipeline,
    all_experiment_ids,
    get_spec,
    list_experiments,
    register,
    run_experiment,
    unregister,
)
from repro.experiments.compose import compose_spec
from repro.experiments.registry import experiment
from repro.experiments.spec import RunContext, validate_seed


def _toy_pipeline() -> Pipeline:
    return Pipeline(
        columns=("x", "y"),
        key_columns=("x",),
        cells=lambda ctx, built: (1, 2),
        measure=lambda ctx, built, cell: [(cell, cell * 10 + ctx.seed)],
        notes="toy",
    )


@pytest.fixture
def toy_spec() -> ExperimentSpec:
    return ExperimentSpec(
        experiment_id="toy", title="Toy experiment", pipeline=_toy_pipeline()
    )


class TestExperimentSpec:
    def test_run_collects_rows_from_all_cells(self, toy_spec):
        result = toy_spec.run(scale="smoke", seed=3)
        assert isinstance(result, ExperimentResult)
        assert result.experiment_id == "toy"
        assert result.rows == [(1, 13), (2, 23)]
        assert result.scale == "smoke"
        assert result.notes == "toy"
        assert result.key_columns == ("x",)

    def test_build_feeds_cells_and_measure(self):
        calls: list[str] = []

        def build(ctx: RunContext) -> str:
            calls.append("build")
            return "built"

        spec = ExperimentSpec(
            experiment_id="staged",
            title="Staged",
            pipeline=Pipeline(
                columns=("v",),
                key_columns=("v",),
                build=build,
                cells=lambda ctx, built: (built.upper(),),
                measure=lambda ctx, built, cell: [(f"{built}:{cell}",)],
                notes=lambda ctx, built: f"notes-from-{built}",
            ),
        )
        result = spec.run(scale="smoke")
        assert calls == ["build"]  # build runs exactly once
        assert result.rows == [("built:BUILT",)]
        assert result.notes == "notes-from-built"

    def test_seed_validation_is_the_single_choke_point(self, toy_spec):
        for bad in (True, "0", 1.5, None):
            with pytest.raises(ExperimentError, match="seed must be an int"):
                toy_spec.run(scale="smoke", seed=bad)
        with pytest.raises(ExperimentError, match="seed must be an int"):
            run_experiment("fig7", scale="smoke", seed="0")

    def test_registered_run_annotations_declare_int_seed(self):
        """The old modules annotated ``seed: object``; the spec runner now
        owns validation and the public signature says what it accepts."""
        import inspect

        signature = inspect.signature(get_spec("fig9").run)
        assert signature.parameters["seed"].annotation == "int"

    def test_validate_seed_passthrough(self):
        assert validate_seed(7) == 7

    def test_empty_columns_rejected(self):
        with pytest.raises(ExperimentError, match="at least one result column"):
            Pipeline(columns=(), measure=lambda ctx, built, cell: [], key_columns=())

    def test_key_columns_are_required(self):
        with pytest.raises(ExperimentError, match="needs key_columns") as info:
            Pipeline(columns=("a",), measure=lambda ctx, built, cell: [], key_columns=())
        assert "\n" not in str(info.value)

    def test_key_columns_must_be_columns(self):
        with pytest.raises(ExperimentError, match="key_columns"):
            Pipeline(
                columns=("a",),
                key_columns=("b",),
                measure=lambda ctx, built, cell: [],
            )

    def test_spec_needs_id_and_title(self):
        with pytest.raises(ExperimentError, match="non-empty id"):
            ExperimentSpec(experiment_id="", title="t", pipeline=_toy_pipeline())
        with pytest.raises(ExperimentError, match="non-empty title"):
            ExperimentSpec(experiment_id="x", title="", pipeline=_toy_pipeline())


class TestRegistryMetadata:
    def test_every_registered_spec_carries_metadata(self):
        for spec in list_experiments():
            assert spec.experiment_id in all_experiment_ids()
            assert spec.title
            assert spec.tags  # every built-in experiment is tagged

    def test_paper_figures_declare_their_artifact(self):
        assert get_spec("fig9").figure == "Figure 9"
        assert get_spec("tab1").figure == "Table 1"
        assert get_spec("ablation-ds").figure is None

    def test_tag_filtering(self):
        ext = {spec.experiment_id for spec in list_experiments(("ext",))}
        assert ext == {
            "ext-churn",
            "ext-outage",
            "ext-wave",
            "ext-joinstorm",
            "ext-adversarial",
            "svc-steady",
            "svc-outage",
        }
        service = {spec.experiment_id for spec in list_experiments(("service",))}
        assert service == {"svc-steady", "svc-outage"}
        paper_tables = [spec.experiment_id for spec in list_experiments(("table", "paper"))]
        assert paper_tables == ["tab1", "tab2", "tab3"]
        assert list_experiments(("no-such-tag",)) == []

    def test_scenario_families_on_ext_specs(self):
        assert get_spec("ext-outage").scenario_family == "regional-outage"
        assert get_spec("fig11").scenario_family == "flapping"
        assert get_spec("tab1").scenario_family is None

    def test_duplicate_id_rejected(self, toy_spec):
        register(toy_spec)
        try:
            with pytest.raises(ExperimentError, match="already registered"):
                register(toy_spec)
            with pytest.raises(ExperimentError, match="already registered"):

                @experiment(id="toy", title="Another toy")
                def duplicate() -> Pipeline:
                    return _toy_pipeline()

        finally:
            unregister("toy")

    def test_decorator_registers_and_returns_the_spec(self):
        @experiment(id="decorated-toy", title="Decorated", tags=("test-only",))
        def decorated() -> Pipeline:
            return _toy_pipeline()

        try:
            assert isinstance(decorated, ExperimentSpec)
            assert get_spec("decorated-toy") is decorated
            assert decorated.tags == ("test-only",)
            result = run_experiment("decorated-toy", scale="smoke", seed=1)
            assert result.rows == [(1, 11), (2, 21)]
        finally:
            unregister("decorated-toy")

    def test_unregister_unknown_id(self):
        with pytest.raises(ExperimentError, match="not registered"):
            unregister("never-registered")

    def test_unregister_builtin_rejected(self):
        """Built-in modules import at most once per process, so removing
        one would be unrecoverable; the registry refuses."""
        with pytest.raises(ExperimentError, match="built in"):
            unregister("fig9")
        assert "fig9" in all_experiment_ids()

    def test_every_module_that_registers_is_in_the_catalogue(self):
        """The registry imports exactly the modules it lists, so a module
        with an ``@experiment(`` call that is not listed would drop its
        experiments from ``list`` without a word."""
        from repro.experiments import registry

        package = pathlib.Path(registry.__file__).parent
        registering = set()
        for path in package.glob("*.py"):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.FunctionDef) and any(
                    isinstance(decorator, ast.Call)
                    and getattr(decorator.func, "id", None) == "experiment"
                    for decorator in node.decorator_list
                ):
                    registering.add(f"repro.experiments.{path.stem}")
        assert registering == set(registry._EXPERIMENT_MODULES)
        assert len(registry._EXPERIMENT_MODULES) == 5

    def test_the_perturbed_testbed_has_one_build_stage(self):
        from repro.experiments.perturbed import build_stage

        ids = ("fig1", "fig11", "fig12", "ext-churn", "ext-wave", "ext-adversarial")
        for experiment_id in ids:
            assert get_spec(experiment_id).pipeline.build is build_stage, experiment_id
        assert compose_spec(_composed_source()).pipeline.build is build_stage


def _composed_source(experiment_id: str = "composed-test") -> dict:
    return {
        "experiment": {
            "id": experiment_id,
            "title": "Composed outage severity sweep",
            "tags": ["ext", "composed"],
        },
        "sweep": {"column": "severity", "values": [0.0, 0.5, 1.0]},
        "scenario": [
            {"family": "flapping", "period": "30:30", "probability": 0.5},
            {
                "family": "regional-outage",
                "start": 90.0,
                "duration": 600.0,
                "severity": "$severity",
            },
        ],
        "variants": {"names": ["pastry", "mpil-ds", "mpil-nods"], "rejoin": True},
        "workload": {"spacing": 60.0, "window": [0.33, 0.66]},
    }


class TestCompose:
    def test_round_trip_compose_run_result(self):
        spec = compose_spec(_composed_source())
        assert spec.experiment_id == "composed-test"
        assert spec.tags == ("ext", "composed")
        result = spec.run(scale="smoke", seed=1)
        assert result.columns == (
            "severity",
            "MSPastry",
            "MPIL with DS",
            "MPIL without DS",
        )
        assert result.key_columns == ("severity",)
        assert result.column("severity") == [0.0, 0.5, 1.0]
        for column in result.columns[1:]:
            for rate in result.column(column):
                assert 0.0 <= rate <= 100.0
        assert "composed scenario" in result.notes

    def test_composed_runs_are_deterministic(self):
        spec = compose_spec(_composed_source())
        a = spec.run(scale="smoke", seed=2)
        b = spec.run(scale="smoke", seed=2)
        assert json.dumps(a.to_dict(), sort_keys=True) == json.dumps(
            b.to_dict(), sort_keys=True
        )

    def test_severity_axis_degrades_success(self):
        """The composed severity sweep must reproduce the nested-outage
        monotonicity the hand-written ext-outage experiment pins."""
        spec = compose_spec(_composed_source())
        result = spec.run(scale="smoke", seed=0)
        rates = result.column("MPIL without DS")
        assert rates == sorted(rates, reverse=True)
        assert rates[0] > rates[-1]

    def test_single_scenario_needs_no_timeline(self):
        source = _composed_source()
        source["scenario"] = [
            {"family": "churn", "mean_session": "$severity", "mean_downtime": 300.0}
        ]
        source["sweep"] = {"column": "severity", "values": [300.0, 30.0]}
        result = compose_spec(source).run(scale="smoke", seed=0)
        assert len(result.rows) == 2

    @pytest.mark.parametrize(
        "mutate, fragment",
        [
            (lambda s: s.pop("experiment"), r"\[experiment\] table"),
            (lambda s: s["experiment"].pop("id"), "non-empty 'id'"),
            (lambda s: s.pop("sweep"), r"\[sweep\] table"),
            (lambda s: s["sweep"].update(values=[]), "non-empty 'values'"),
            (lambda s: s.pop("scenario"), r"\[\[scenario\]\]"),
            (
                lambda s: s["scenario"][0].update(family="meteor-strike"),
                "unknown scenario family",
            ),
            (
                lambda s: s["scenario"][0].update(wingspan=3),
                "unknown parameter",
            ),
            (
                lambda s: s["scenario"][0].pop("period"),
                "missing required parameter",
            ),
            (
                lambda s: s["scenario"][0].update(probability="oops"),
                "must be a number",
            ),
            (
                lambda s: s["sweep"].update(values=[0.0, "half"]),
                "must be a number",
            ),
            (
                lambda s: s["scenario"][1].update(severity="$intensity"),
                "unknown sweep axis",
            ),
            (
                lambda s: s["variants"].update(names=["pastry", "carrier-pigeon"]),
                "unknown variant",
            ),
            (lambda s: s["variants"].update(names=[]), "at least one"),
            (
                lambda s: s["scenario"][0].update(period="thirty:thirty"),
                "thirty",
            ),
            (
                lambda s: s["scenario"].append(
                    {
                        "family": "adversarial-removal",
                        "fraction": 0.1,
                        "start": 5.0,
                        "targeting": "diameter",
                    }
                ),
                "targeting must be",
            ),
            # ranges, not just names and types, are compose-time errors:
            # these used to build the testbed (and, for the axis case,
            # measure the good cells) before dying
            (
                lambda s: s["scenario"][0].update(probability=1.5),
                "probability must be in",
            ),
            (
                lambda s: s["sweep"].update(values=[0.5, 1.5]),
                "severity must be in",
            ),
            (lambda s: s["workload"].update(spacing=-1.0), "spacing"),
            (lambda s: s["workload"].update(spacing="fast"), "must be a number"),
            (lambda s: s["workload"].update(window=[0.9, 0.1]), "window"),
            (lambda s: s["workload"].update(window=["a", "b"]), "must be a number"),
            # bare strings are not lists: they would silently iterate
            # character by character
            (lambda s: s["experiment"].update(tags="ext"), "must be a list"),
            (lambda s: s["variants"].update(names="pastry"), "must be a list"),
            (lambda s: s["sweep"].update(values="0.5"), "'values' list"),
        ],
    )
    def test_malformed_specs_fail_eagerly(self, mutate, fragment):
        source = _composed_source()
        mutate(source)
        with pytest.raises(ExperimentError, match=fragment):
            compose_spec(source)

    @pytest.mark.parametrize(
        "field, fragment",
        [("perturbed_lookups", "0 lookup"), ("perturbed_inserts", "0 object")],
    )
    def test_empty_stage2_is_a_one_line_error(self, field, fragment):
        """A ``[scale]`` table is outside input: zero lookups (or an empty
        stage-1 pool) used to die with a ZeroDivisionError traceback."""
        source = _composed_source()
        del source["workload"]["window"]  # a window always keeps one lookup
        source["scale"] = {field: 0}
        with pytest.raises(ExperimentError, match=fragment) as info:
            api.run(api.compose(source), scale="smoke")
        assert "\n" not in str(info.value)


def _service_source(experiment_id: str = "composed-service") -> dict:
    source = _composed_source(experiment_id)
    del source["workload"]
    source["sweep"] = {"column": "severity", "values": [0.0, 1.0]}
    source["service"] = {
        "rate": 0.5,
        "duration": 120.0,
        "window": 60.0,
        "arrival": "poisson",
        "insert_fraction": 0.1,
        "slo_latency": 1.0,
        "slo_availability": 0.9,
    }
    return source


class TestComposeService:
    """The [service] table routes a composed sweep through the open-loop
    service driver instead of the spaced lookup workload."""

    def test_service_spec_runs_windowed_rows(self):
        spec = compose_spec(_service_source())
        result = spec.run(scale="smoke", seed=0)
        assert result.columns[:3] == ("severity", "variant", "window")
        assert {"latency_p50", "latency_p99", "slo_ok"} < set(result.columns)
        assert result.key_columns == ("severity", "variant", "window")
        # 2 severities x 3 variants x 2 windows
        assert len(result.rows) == 12
        assert "_p50" in result.stat_suffixes and "_p99" in result.stat_suffixes

    def test_service_spec_deterministic(self):
        spec = compose_spec(_service_source())
        a = spec.run(scale="smoke", seed=3)
        b = spec.run(scale="smoke", seed=3)
        assert a.rows == b.rows

    def test_service_params_substitute_sweep_axis(self):
        source = _service_source()
        source["sweep"] = {"column": "rate", "values": [0.25, 0.5]}
        source["scenario"] = [
            {"family": "flapping", "period": "30:30", "probability": 0.5}
        ]
        source["service"]["rate"] = "$rate"
        result = compose_spec(source).run(scale="smoke", seed=0)
        arrivals_by_rate = {
            rate: sum(
                row[result.columns.index("arrivals")]
                for row in result.rows
                if row[0] == rate and row[1] == "MPIL with DS"
            )
            for rate in (0.25, 0.5)
        }
        # double the offered rate, roughly double the arrivals
        assert arrivals_by_rate[0.5] > arrivals_by_rate[0.25]

    @pytest.mark.parametrize(
        "mutate, fragment",
        [
            (
                lambda s: s.update(workload={"spacing": 60.0}),
                "not both",
            ),
            (lambda s: s["service"].update(burstiness=2.0), "unknown parameter"),
            (lambda s: s["service"].update(arrival="burst"), "arrival"),
            (lambda s: s["service"].update(rate="fast"), "must be a number"),
            (
                lambda s: s["service"].update(slo_availability="$severity"),
                None,  # axis substitution is allowed; no error
            ),
            # ... but every axis value must be in range: 0 s of traffic
            (
                lambda s: s["service"].update(duration="$severity"),
                "duration must be positive",
            ),
            (lambda s: s["service"].update(window=600.0), r"window must be in"),
            (lambda s: s["service"].update(slo_latency=0.0), "SLO latency"),
        ],
    )
    def test_service_table_validation(self, mutate, fragment):
        source = _service_source()
        mutate(source)
        if fragment is None:
            compose_spec(source)
        else:
            with pytest.raises(ExperimentError, match=fragment):
                compose_spec(source)


class TestApiFacade:
    def test_run_by_id_matches_registry(self):
        assert (
            api.run("fig7", scale="smoke", seed=0).to_dict()
            == run_experiment("fig7", scale="smoke", seed=0).to_dict()
        )

    def test_run_unregistered_spec(self, toy_spec):
        result = api.run(toy_spec, scale="smoke", seed=2)
        assert result.rows == [(1, 12), (2, 22)]

    def test_list_experiments_filters(self):
        assert [s.experiment_id for s in api.list_experiments(("ext",))] == [
            "ext-churn",
            "ext-outage",
            "ext-wave",
            "ext-joinstorm",
            "ext-adversarial",
            "svc-steady",
            "svc-outage",
        ]

    def test_get_returns_registered_spec(self):
        assert api.get("fig9").experiment_id == "fig9"

    def test_sweep_through_store(self, tmp_path):
        report = api.sweep("fig7", seeds="0..1", scale="smoke", store=tmp_path)
        assert len(report.outcomes) == 2
        assert (tmp_path / "fig7" / "smoke" / "seed_0.json").exists()
        assert (tmp_path / "fig7" / "smoke" / "aggregate.json").exists()

    def test_sweep_accepts_iterables(self):
        report = api.sweep(["fig7"], seeds=(1, 3), scale="smoke")
        assert {outcome.seed for outcome in report.outcomes} == {1, 3}

    def test_compose_register_and_unregister(self):
        spec = api.compose(_composed_source("composed-registered"), register_spec=True)
        try:
            assert "composed-registered" in all_experiment_ids()
            assert api.get("composed-registered") is spec
        finally:
            api.unregister("composed-registered")
        assert "composed-registered" not in all_experiment_ids()

    def test_compose_from_toml_file(self, tmp_path):
        toml_text = """
[experiment]
id = "composed-from-file"
title = "TOML-defined severity sweep"
tags = ["composed"]

[sweep]
column = "severity"
values = [0.0, 1.0]

[[scenario]]
family = "regional-outage"
start = 90.0
duration = 600.0
severity = "$severity"
"""
        path = tmp_path / "sweep.toml"
        path.write_text(toml_text)
        spec = api.compose(path)
        result = spec.run(scale="smoke", seed=0)
        assert result.experiment_id == "composed-from-file"
        assert len(result.rows) == 2

    def test_compose_from_json_file(self, tmp_path):
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps(_composed_source("composed-json")))
        spec = api.compose(path)
        assert spec.experiment_id == "composed-json"

    def test_compose_missing_file(self, tmp_path):
        with pytest.raises(ExperimentError, match="does not exist"):
            api.compose(tmp_path / "nope.toml")


class TestResultColumnErrors:
    def test_unknown_column_lists_available(self):
        result = ExperimentResult(
            experiment_id="x", title="t", columns=("a", "b"), rows=[(1, 2)]
        )
        with pytest.raises(ExperimentError, match="available columns: a, b"):
            result.column("c")
        with pytest.raises(ExperimentError, match="unknown column 'z'"):
            result.filtered(z=1)
