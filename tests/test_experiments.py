"""Smoke tests for the experiment harness: every registered experiment
runs at smoke scale and returns a well-formed, non-empty result."""

from __future__ import annotations

import pytest

from repro.errors import ExperimentError
from repro.experiments import (
    ExperimentResult,
    all_experiment_ids,
    get_scale,
    get_spec,
    run_experiment,
)
from repro.experiments.base import mean
from repro.experiments.scales import SCALES, Scale
from repro.experiments.workloads import make_overlay, run_inserts, run_lookups

FAST_IDS = [
    "fig7",
    "fig8",
    "fig9",
    "fig10",
    "tab1",
    "tab2",
    "tab3",
    "ablation-metric",
    "ablation-ds",
    "ablation-flows",
    "ablation-tiebreak",
    "baseline-comparison",
]
PERTURBED_IDS = ["fig1", "fig11", "fig12", "ext-churn"]


class TestScales:
    def test_known_scales(self):
        assert set(SCALES) == {"smoke", "default", "paper", "large"}
        assert get_scale("smoke").name == "smoke"

    def test_scale_passthrough(self):
        scale = SCALES["smoke"]
        assert get_scale(scale) is scale

    def test_unknown_scale(self):
        with pytest.raises(ExperimentError):
            get_scale("gigantic")

    def test_paper_scale_matches_publication(self):
        paper = get_scale("paper")
        assert paper.static_node_counts == (4000, 8000, 16000)
        assert paper.static_graphs == 10
        assert paper.static_ops == 100
        assert paper.pastry_nodes == 1000
        assert paper.perturbed_lookups == 1000


class TestRegistry:
    def test_ids_present(self):
        ids = all_experiment_ids()
        for required in ("fig1", "fig7", "fig8", "fig9", "fig10", "fig11", "fig12",
                         "tab1", "tab2", "tab3"):
            assert required in ids

    def test_unknown_experiment(self):
        with pytest.raises(ExperimentError):
            get_spec("fig99")
        with pytest.raises(ExperimentError):
            run_experiment("fig99")


@pytest.mark.parametrize("experiment_id", FAST_IDS)
def test_fast_experiments_smoke(experiment_id):
    result = run_experiment(experiment_id, scale="smoke", seed=0)
    assert isinstance(result, ExperimentResult)
    assert result.experiment_id == experiment_id
    assert result.rows
    assert all(len(row) == len(result.columns) for row in result.rows)
    text = result.table()
    assert experiment_id in text
    assert result.scale == "smoke"


@pytest.mark.parametrize("experiment_id", PERTURBED_IDS)
def test_perturbed_experiments_smoke(experiment_id):
    result = run_experiment(experiment_id, scale="smoke", seed=0)
    assert result.rows
    success_columns = [
        i
        for i, c in enumerate(result.columns)
        if "success" in c.lower() or "MPIL" in c or "MSPastry" in c
    ]
    if "success" in " ".join(result.columns).lower() or success_columns:
        for row in result.rows:
            for i in success_columns:
                if isinstance(row[i], (int, float)):
                    assert 0.0 <= row[i] <= 100.0


class TestResultHelpers:
    def test_column_and_filtered(self):
        result = ExperimentResult(
            experiment_id="x",
            title="t",
            columns=("a", "b"),
            rows=[(1, "u"), (2, "v"), (1, "w")],
        )
        assert result.column("a") == [1, 2, 1]
        assert result.filtered(a=1) == [(1, "u"), (1, "w")]

    def test_mean_empty(self):
        assert mean([]) == 0.0
        assert mean([1, 2, 3]) == 2.0


class TestWorkloads:
    def test_make_overlay_families(self):
        for family in ("power-law", "random"):
            overlay = make_overlay(family, 200, 0, seed=0)
            assert overlay.n == 200

    def test_run_inserts_then_lookups(self):
        run = run_inserts("random", 200, 0, 8, seed=1)
        assert len(run.objects) == 8
        assert len(run.insert_results) == 8
        lookups = run_lookups(run, max_flows=10, per_flow_replicas=3, seed=1)
        assert len(lookups) == 8
        assert sum(l.success for l in lookups) >= 6

    def test_workload_deterministic(self):
        a = run_inserts("random", 200, 0, 5, seed=2)
        b = run_inserts("random", 200, 0, 5, seed=2)
        assert [r.replicas for r in a.insert_results] == [
            r.replicas for r in b.insert_results
        ]

    def test_custom_scale_object_accepted(self):
        scale = Scale(
            name="custom",
            static_node_counts=(120,),
            static_graphs=1,
            static_ops=4,
            analysis_node_counts=(1000,),
            analysis_degrees=(10,),
            complete_node_counts=(1000,),
            pastry_nodes=50,
            perturbed_inserts=5,
            perturbed_lookups=5,
            flap_probabilities=(0.5,),
        )
        result = run_experiment("fig7", scale=scale, seed=0)
        assert result.rows


class TestEmptyStaticCell:
    """A scale with no static size, sample graph or operation used to be an
    ``IndexError`` traceback (ablations, baseline-comparison), an empty table
    (fig9, fig10, tab1-tab3) or rows of a "0 % success" that never issued a
    lookup.  It is one error naming the field, before any overlay is built."""

    #: one static experiment of each shape: the (family, nodes) grid, a
    #: one-family table, the first size only, and runs made in ``build``
    SHAPES = ["fig9", "fig10", "tab1", "tab3", "ablation-metric", "ablation-flows",
              "baseline-comparison"]

    @pytest.mark.parametrize("experiment_id", SHAPES)
    @pytest.mark.parametrize(
        "field, value",
        [("static_node_counts", ()), ("static_graphs", 0), ("static_ops", 0)],
    )
    def test_is_one_error_naming_the_field(self, experiment_id, field, value, monkeypatch):
        import repro.experiments.workloads as workloads

        def no_overlay(*args, **kwargs):
            raise AssertionError("the scale is checked before any overlay is built")

        monkeypatch.setattr(workloads, "make_overlay", no_overlay)
        hollow = get_scale("smoke").evolve(name="hollow", **{field: value})
        with pytest.raises(ExperimentError, match=f"'hollow' has (no )?{field}"):
            run_experiment(experiment_id, scale=hollow, seed=0)

    def test_a_fractional_count_is_the_same_error(self):
        # refused when the rung is made, before any experiment can see it
        with pytest.raises(ExperimentError, match="static_graphs must be an integer, got 1.5"):
            get_scale("smoke").evolve(static_graphs=1.5)


class TestServiceExperiments:
    """The sustained-traffic service modes (svc-*)."""

    def test_registered_with_service_tag(self):
        from repro.experiments.registry import get_spec

        ids = all_experiment_ids()
        for required in ("svc-steady", "svc-outage"):
            assert required in ids
            assert "service" in get_spec(required).tags

    def test_svc_steady_smoke(self):
        result = run_experiment("svc-steady", scale="smoke", seed=0)
        assert result.columns[0] == "load"
        assert {"variant", "window", "latency_p99", "slo_ok"} < set(result.columns)
        loads = set(result.column("load"))
        assert loads == set(get_scale("smoke").service_loads)
        assert all(len(row) == len(result.columns) for row in result.rows)
        # percentile ordering holds in every window
        cols = result.columns
        for row in result.rows:
            p50, p95, p99 = (row[cols.index(c)] for c in
                             ("latency_p50", "latency_p95", "latency_p99"))
            assert p50 <= p95 <= p99

    def test_svc_outage_deterministic_with_nonzero_p99(self):
        first = run_experiment("svc-outage", scale="smoke", seed=0)
        second = run_experiment("svc-outage", scale="smoke", seed=0)
        assert first.rows == second.rows
        p99s = first.column("latency_p99")
        assert any(value > 0 for value in p99s)
        # a full-severity outage must break some SLO windows
        severity = first.column("outage_severity")
        slo = first.column("slo_ok")
        assert any(s == 1.0 and ok == 0 for s, ok in zip(severity, slo))

    def test_service_replicates_aggregate_with_percentiles(self):
        from repro.experiments.store import aggregate_results

        replicates = [
            run_experiment("svc-steady", scale="smoke", seed=seed)
            for seed in (0, 1)
        ]
        aggregate = aggregate_results(replicates)
        assert "latency_p99_p95" in aggregate.columns
        assert "latency_p99_mean" in aggregate.columns
        assert "throughput_ci95" in aggregate.columns
