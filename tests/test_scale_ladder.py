"""Tests for the scale ladder: the flat Scale dataclass, the rung
registry, run budgets, the population's shared arrays and bulk
availability bitmaps."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro import api
from repro.core.identifiers import IdSpace, pack_digit_matrix
from repro.core.metric import (
    CommonDigitsMetric,
    NeighborMetricTable,
    PrefixLengthMetric,
    SuffixLengthMetric,
)
from repro.errors import ExperimentError
from repro.experiments.cli import main
from repro.experiments.compose import compose_spec
from repro.experiments.registry import run_experiment
from repro.experiments.scales import (
    BudgetSpec,
    Scale,
    available_scales,
    get_scale,
    register_scale,
    unregister_scale,
)
from repro.overlay.random_graphs import fixed_degree_random_graph
from repro.pastry import state as pastry_state
from repro.perturbation.adversarial import AdversarialRemoval, AdversarialRemovalConfig
from repro.perturbation.churn import ChurnConfig, ChurnSchedule
from repro.perturbation.flapping import FlappingConfig, FlappingSchedule
from repro.perturbation.outage import RegionalOutage, RegionalOutageConfig
from repro.perturbation.storms import JoinStormConfig, JoinStormSchedule
from repro.perturbation.timeline import ScenarioTimeline
from repro.perturbation.waves import ChurnWaveConfig, ChurnWaveSchedule
from repro.sim.latency import UniformRandomLatency
from repro.sim.rng import derive_rng

SMOKE = get_scale("smoke")


@pytest.fixture
def scratch_rungs():
    """Unregister any rung a test registers, even on failure."""
    registered: list[str] = []
    yield registered
    for name in registered:
        try:
            unregister_scale(name)
        except ExperimentError:
            pass


# ---------------------------------------------------------------------------
# Scale: one frozen dataclass of flat fields plus the budget
# ---------------------------------------------------------------------------


class TestScaleStructure:
    def test_fields_are_name_the_flat_knobs_and_budget(self):
        assert [field.name for field in dataclasses.fields(Scale)] == [
            "name",
            "static_node_counts",
            "static_graphs",
            "static_ops",
            "analysis_node_counts",
            "analysis_degrees",
            "complete_node_counts",
            "pastry_nodes",
            "perturbed_inserts",
            "perturbed_lookups",
            "flap_probabilities",
            "outage_severities",
            "wave_intensities",
            "storm_fractions",
            "removal_fractions",
            "service_duration",
            "service_rate",
            "service_window",
            "service_loads",
            "budget",
        ]
        # one spelling: plain fields, no hand-written __init__, no views
        assert not [v for v in vars(Scale).values() if isinstance(v, property)]

    def test_unknown_flat_field_rejected(self):
        with pytest.raises(TypeError, match="unexpected keyword") as info:
            Scale(name="x", warp_factor=9)
        assert "\n" not in str(info.value)

    def test_evolve_flat_field(self):
        evolved = SMOKE.evolve(pastry_nodes=123)
        assert evolved.pastry_nodes == 123
        assert evolved == dataclasses.replace(SMOKE, pastry_nodes=123)

    def test_evolve_whole_subspec_and_name(self):
        budget = BudgetSpec(max_wall_s=60.0)
        evolved = SMOKE.evolve(name="capped", budget=budget)
        assert evolved.budget is budget
        assert evolved == dataclasses.replace(SMOKE, name="capped", budget=budget)

    def test_evolve_budget_shorthand_keeps_the_other_ceiling(self):
        capped = SMOKE.evolve(max_rss_mb=512.0).evolve(max_wall_s=60.0)
        assert capped.budget == BudgetSpec(max_rss_mb=512.0, max_wall_s=60.0)
        assert dataclasses.replace(capped, budget=SMOKE.budget) == SMOKE

    def test_evolve_unknown_field_is_one_line_error(self):
        with pytest.raises(ExperimentError, match="unknown scale field") as info:
            SMOKE.evolve(warp_factor=9)
        assert "\n" not in str(info.value)

    @pytest.mark.parametrize(
        "field", [f.name for f in dataclasses.fields(Scale) if f.name not in ("name", "budget")]
    )
    @pytest.mark.parametrize("value", ["12", True])
    def test_every_flat_field_is_type_checked(self, field, value):
        """A string or a bool in any flat field — a count, a float or a
        tuple — is one error naming the field, from ``evolve`` and from a
        hand-built rung ``register_scale`` would be given alike."""
        with pytest.raises(ExperimentError, match=f"^scale field {field} must be") as info:
            SMOKE.evolve(**{field: value})
        assert "\n" not in str(info.value)
        with pytest.raises(ExperimentError, match=f"^scale field {field} must be"):
            Scale(**{**dataclasses.asdict(SMOKE), "budget": SMOKE.budget, field: value})

    def test_budget_validation(self):
        assert BudgetSpec().unlimited
        assert not BudgetSpec(max_wall_s=1.0).unlimited
        with pytest.raises(ExperimentError, match="positive"):
            BudgetSpec(max_wall_s=-1.0)
        with pytest.raises(ExperimentError, match="positive"):
            BudgetSpec(max_rss_mb=0)


# ---------------------------------------------------------------------------
# The ladder rungs and the runtime registry
# ---------------------------------------------------------------------------


class TestScaleRegistry:
    def test_ladder_rungs_are_builtin_and_budgeted(self):
        large = get_scale("large")
        assert large.static_node_counts == (100_000,)
        assert large.budget.max_wall_s is not None
        assert large.budget.max_rss_mb is not None
        # smoke..paper stay unbudgeted (the historical behaviour)
        for name in ("smoke", "default", "paper"):
            assert get_scale(name).budget.unlimited

    def test_unknown_rung_error_lists_available(self):
        with pytest.raises(ExperimentError, match="large") as info:
            get_scale("gigantic")
        message = str(info.value)
        assert "\n" not in message
        assert "smoke" in message
        # the never-run 10^6 rung is gone; its name fails like any other
        with pytest.raises(
            ExperimentError,
            match=r"choose from \['default', 'large', 'paper', 'smoke'\]",
        ):
            get_scale("massive")

    def test_register_resolve_unregister(self, scratch_rungs):
        rung = SMOKE.evolve(name="ladder-test-rung", pastry_nodes=60)
        register_scale(rung)
        scratch_rungs.append("ladder-test-rung")
        assert get_scale("ladder-test-rung") is rung
        assert "ladder-test-rung" in available_scales()
        unregister_scale("ladder-test-rung")
        assert "ladder-test-rung" not in available_scales()
        with pytest.raises(ExperimentError, match="unknown scale"):
            get_scale("ladder-test-rung")

    def test_builtin_names_are_immutable(self):
        with pytest.raises(ExperimentError, match="built-in"):
            register_scale(SMOKE.evolve(pastry_nodes=1))
        with pytest.raises(ExperimentError, match="built-in"):
            unregister_scale("smoke")

    def test_duplicate_registration_needs_replace(self, scratch_rungs):
        first = SMOKE.evolve(name="ladder-dup")
        register_scale(first)
        scratch_rungs.append("ladder-dup")
        with pytest.raises(ExperimentError, match="replace=True"):
            register_scale(SMOKE.evolve(name="ladder-dup"))
        second = SMOKE.evolve(name="ladder-dup", pastry_nodes=77)
        register_scale(second, replace=True)
        assert get_scale("ladder-dup").pastry_nodes == 77

    def test_api_facade(self, scratch_rungs):
        names = [scale.name for scale in api.scales()]
        assert names == sorted(names)
        assert {"smoke", "default", "paper", "large"} <= set(names)
        assert api.get_scale("large").name == "large"
        rung = api.get_scale("smoke").evolve(name="ladder-api-rung")
        api.register_scale(rung)
        scratch_rungs.append("ladder-api-rung")
        assert any(scale.name == "ladder-api-rung" for scale in api.scales())
        api.unregister_scale("ladder-api-rung")


# ---------------------------------------------------------------------------
# Budget enforcement
# ---------------------------------------------------------------------------


class TestBudgetEnforcement:
    def test_wall_clock_budget_aborts_with_one_line_error(self):
        capped = SMOKE.evolve(name="tiny-wall", max_wall_s=1e-9)
        with pytest.raises(ExperimentError, match="wall-clock budget") as info:
            run_experiment("fig7", scale=capped, seed=0)
        assert "\n" not in str(info.value)
        assert "tiny-wall" in str(info.value)

    def test_rss_budget_aborts_with_one_line_error(self):
        from repro.experiments.budget import current_rss_mb

        if current_rss_mb() is None:
            pytest.skip("no procfs RSS on this platform")
        capped = SMOKE.evolve(name="tiny-rss", max_rss_mb=0.5)
        with pytest.raises(ExperimentError, match="memory budget") as info:
            run_experiment("fig7", scale=capped, seed=0)
        assert "\n" not in str(info.value)

    def test_generous_budget_does_not_interfere(self):
        roomy = SMOKE.evolve(name="roomy", max_wall_s=3600.0, max_rss_mb=1 << 20)
        result = run_experiment("fig7", scale=roomy, seed=0)
        assert result.rows
        assert result.scale == "roomy"

    def test_a_memory_budget_without_procfs_is_recorded_as_unenforced(
        self, tmp_path, monkeypatch
    ):
        """Without ``/proc/self/status`` the RSS ceiling cannot be checked;
        the run says so in its metrics blob and its manifest entry instead
        of passing as if it had been.  An unbudgeted run records nothing."""
        from repro.experiments import budget
        from repro.experiments.runner import save_outcome
        from repro.experiments.runtime import execute_task
        from repro.experiments.store import ResultStore

        monkeypatch.setattr(budget, "_PROC_STATUS", str(tmp_path / "no-procfs"))
        store = ResultStore(tmp_path / "store")
        capped = SMOKE.evolve(name="rss-capped", max_rss_mb=1e6)
        for scale, seed in ((capped, 0), (SMOKE, 1)):
            save_outcome(store, execute_task("fig7", scale, seed))
        assert store.telemetry("fig7", "rss-capped", 0)["memory_budget_enforced"] is False
        run = store.manifest("fig7", "rss-capped")["runs"]["seed_0"]
        assert run["memory_budget_enforced"] is False
        assert "memory_budget_enforced" not in store.telemetry("fig7", "smoke", 1)
        assert "memory_budget_enforced" not in store.manifest("fig7", "smoke")["runs"]["seed_1"]

    def test_large_rung_recipe_runs_inside_its_budget(self, scratch_rungs):
        """A bounded taste of ``large``: the rung's recipe — one graph per
        family, degree-100 random overlay, the struct-of-arrays core — at a
        node count that fits a test, under ceilings a regression of the
        generators or the core would cross."""
        capped = (5_000,)
        api.register_scale(
            api.get_scale("large").evolve(
                name="large-ci",
                static_node_counts=capped,
                analysis_node_counts=capped,
                complete_node_counts=capped,
                pastry_nodes=1_000,
                max_wall_s=60.0,
                max_rss_mb=2048.0,
            )
        )
        scratch_rungs.append("large-ci")
        result = api.run("fig9", scale="large-ci")
        assert result.scale == "large-ci"
        assert [row[:2] for row in result.rows] == [("power-law", 5_000), ("random", 5_000)]
        assert all(0 < row[2] <= 150 for row in result.rows)  # replicas under the cap

    def test_budget_abort_leaves_no_partial_artifacts(
        self, tmp_path, capsys, scratch_rungs
    ):
        register_scale(SMOKE.evolve(name="ladder-capped", max_wall_s=1e-9))
        scratch_rungs.append("ladder-capped")
        out = tmp_path / "results"
        code = main(
            ["run", "fig7", "--scale", "ladder-capped", "--out", str(out)]
        )
        assert code == 2
        assert "wall-clock budget" in capsys.readouterr().err
        leftovers = [p for p in out.rglob("*") if p.is_file()]
        assert leftovers == []


# ---------------------------------------------------------------------------
# Compose: the [scale] table
# ---------------------------------------------------------------------------


def _composed_source(scale_table):
    return {
        "experiment": {"id": "ladder-composed", "title": "scale table test"},
        "sweep": {"column": "probability", "values": [0.5]},
        "scenario": [
            {"family": "flapping", "period": "30:30", "probability": "$probability"}
        ],
        "scale": scale_table,
    }


class TestComposeScaleTable:
    def test_scale_table_overrides_invoked_rung(self):
        spec = compose_spec(
            _composed_source(
                {
                    "pastry_nodes": 60,
                    "perturbed_lookups": 10,
                    "budget": {"max_wall_s": 300.0},
                }
            )
        )
        evolved = spec.scale_transform(SMOKE)
        assert evolved.pastry_nodes == 60
        assert evolved.perturbed_lookups == 10
        assert evolved.budget.max_wall_s == 300.0
        # fields the table doesn't pin follow the invoked rung
        assert evolved.perturbed_inserts == SMOKE.perturbed_inserts
        result = spec.run(scale="smoke", seed=0)
        assert result.rows

    def test_scale_table_base_and_name(self):
        spec = compose_spec(
            _composed_source({"base": "default", "name": "composed-rung"})
        )
        evolved = spec.scale_transform(SMOKE)
        assert evolved.name == "composed-rung"
        assert evolved.pastry_nodes == get_scale("default").pastry_nodes

    def test_unknown_scale_field_fails_at_compose_time(self):
        with pytest.raises(ExperimentError, match="unknown scale field"):
            compose_spec(_composed_source({"warp_factor": 9}))

    def test_unknown_budget_key_fails_at_compose_time(self):
        with pytest.raises(ExperimentError, match=r"scale.budget"):
            compose_spec(_composed_source({"budget": {"max_quarks": 1}}))

    def test_unknown_base_rung_fails_at_compose_time(self):
        with pytest.raises(ExperimentError, match="unknown scale"):
            compose_spec(_composed_source({"base": "galactic"}))


# ---------------------------------------------------------------------------
# The population's shared arrays
# ---------------------------------------------------------------------------


def _arrays_fixture(n=30, degree=6, seed=3):
    overlay = fixed_degree_random_graph(n, degree=degree, seed=seed)
    space = IdSpace(bits=16, digit_bits=4)
    ids = space.random_unique_identifiers(n, derive_rng(seed, "ladder-soa-ids"))
    return overlay, ids


class TestPopulationArrays:
    def test_digit_matrix_matches_identifier_digits(self):
        _overlay, ids = _arrays_fixture()
        matrix = pack_digit_matrix(ids)
        assert matrix.shape == (len(ids), ids[0].space.num_digits)
        assert not matrix.flags.writeable
        for row, identifier in zip(matrix, ids):
            assert bytes(row.tolist()) == identifier.digits
        assert pack_digit_matrix([]).shape == (0, 0)

    def test_metric_table_rows_with_self(self):
        overlay, ids = _arrays_fixture()
        table = NeighborMetricTable(overlay, ids)
        assert np.array_equal(table.digits, pack_digit_matrix(ids))
        assert not table.rows_with_self.flags.writeable
        for node in range(overlay.n):
            start, end = table.indptr_ws[node], table.indptr_ws[node + 1]
            rows = table.rows_with_self[start:end].tolist()
            assert rows == [node, *overlay.neighbors(node)]
            assert table.neighbor_list(node) == overlay.neighbors(node)


class TestMetricTableParity:
    @pytest.mark.parametrize(
        "metric_cls", [CommonDigitsMetric, PrefixLengthMetric, SuffixLengthMetric]
    )
    def test_soa_scores_match_per_pair_reference(self, metric_cls):
        overlay, ids = _arrays_fixture(n=24, degree=5, seed=9)
        metric = metric_cls()
        table = NeighborMetricTable(overlay, ids, metric=metric)
        targets = IdSpace(bits=16, digit_bits=4).random_unique_identifiers(
            6, derive_rng(9, "ladder-targets")
        )
        for target in targets:
            for node in range(overlay.n):
                neighbors = sorted(overlay.neighbors(node))
                expected = [metric.score(target, ids[j]) for j in neighbors]
                assert table.scores(node, target).tolist() == expected
                assert table.scores_with_self(node, target) == [
                    metric.score(target, ids[node])
                ] + expected


class TestMultiBlockTableBuild:
    def _ring(self, n, seed):
        space = IdSpace(bits=16, digit_bits=4)
        ids = space.random_unique_identifiers(n, derive_rng(seed, "ladder-ring"))
        return pastry_state.PastryRing(ids)

    def test_blocked_build_is_block_size_invariant(self, monkeypatch):
        ring = self._ring(40, seed=11)
        expected = pastry_state.build_routing_tables(ring, seed=11)
        monkeypatch.setattr(pastry_state, "_BUILD_BLOCK_BYTES", 1)
        assert pastry_state.build_routing_tables(ring, seed=11) == expected

    def test_blocked_build_with_latency_is_block_size_invariant(self, monkeypatch):
        ring = self._ring(40, seed=12)
        latency = UniformRandomLatency(0.01, 0.09, seed=12)
        expected = pastry_state.build_routing_tables(ring, latency=latency, seed=12)
        monkeypatch.setattr(pastry_state, "_BUILD_BLOCK_BYTES", 1)
        assert (
            pastry_state.build_routing_tables(ring, latency=latency, seed=12)
            == expected
        )


# ---------------------------------------------------------------------------
# Bulk availability bitmaps
# ---------------------------------------------------------------------------


def _mask_processes(n=50, seed=7):
    regions = [node % 4 for node in range(n)]
    flapping = FlappingSchedule(FlappingConfig(30, 30, 0.6), n, seed=seed)
    return {
        "flapping": flapping,
        "churn": ChurnSchedule(ChurnConfig(120.0, 60.0), n, seed=seed),
        "wave": ChurnWaveSchedule(
            ChurnWaveConfig(120.0, 60.0, 600.0, 120.0, 4.0), n, seed=seed
        ),
        "storm": JoinStormSchedule(
            JoinStormConfig(90.0, 0.4), n, seed=seed
        ),
        "outage": RegionalOutage(
            regions, RegionalOutageConfig(60.0, 120.0, 0.5), seed=seed
        ),
        "adversarial": AdversarialRemoval(
            list(range(n)), AdversarialRemovalConfig(0.3, start=50.0), seed=seed
        ),
        "timeline": ScenarioTimeline(
            [
                FlappingSchedule(FlappingConfig(30, 30, 0.6), n, seed=seed),
                RegionalOutage(
                    regions, RegionalOutageConfig(60.0, 120.0, 0.5), seed=seed
                ),
            ]
        ),
    }


class TestOnlineMasks:
    @pytest.mark.parametrize("name", sorted(_mask_processes(n=4, seed=0)))
    def test_mask_matches_point_queries(self, name):
        n = 50
        process = _mask_processes(n=n, seed=7)[name]
        for time in (-1.0, 0.0, 45.0, 61.0, 95.0, 130.0, 700.0):
            mask = process.online_mask(time)
            expected = [process.is_online(node, time) for node in range(n)]
            assert mask.tolist() == expected, f"{name} diverges at t={time}"

    def test_mask_order_independent_of_point_queries(self):
        # resolving the bitmap first must not change later point queries
        # (lazy per-node RNG streams), and vice versa
        n = 40
        a = FlappingSchedule(FlappingConfig(30, 30, 0.6), n, seed=13)
        b = FlappingSchedule(FlappingConfig(30, 30, 0.6), n, seed=13)
        times = (45.0, 105.0, 165.0)
        masks_first = [a.online_mask(t).tolist() for t in times]
        points_first = [
            [b.is_online(node, t) for node in range(n)] for t in times
        ]
        assert masks_first == points_first
        assert [
            [a.is_online(node, t) for node in range(n)] for t in times
        ] == masks_first
        assert [b.online_mask(t).tolist() for t in times] == points_first
