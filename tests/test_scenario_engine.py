"""Tests for the composable perturbation-scenario engine.

Covers the four new availability-process families (regional outage, churn
wave, join storm, adversarial removal), their composition through
``ScenarioTimeline``, the interval-based rejoin model, the scenario
catalogue, seed validation, and the registered ``ext-*`` experiments —
including the integration property the issue pins: composed flapping +
regional-outage lookups degrade monotonically with outage severity.
"""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError
from repro.experiments import run_experiment
from repro.experiments.ext_scenarios import outage_spec
from repro.overlay.transit_stub import TransitStubUnderlay
from repro.pastry.config import PastryConfig
from repro.pastry.rejoin import IntervalRejoinAvailability
from repro.perturbation import (
    AdversarialRemoval,
    AdversarialRemovalConfig,
    ChurnWaveConfig,
    ChurnWaveSchedule,
    FlappingConfig,
    FlappingSchedule,
    JoinStormConfig,
    JoinStormSchedule,
    RegionalOutage,
    RegionalOutageConfig,
    ScenarioTimeline,
    get_family,
    regions_from_attachment,
    scenario_families,
)
from repro.sim.rng import validate_seed


class TestSeedValidation:
    def test_int_and_composite_roots_accepted(self):
        assert validate_seed(3) == 3
        assert validate_seed((0, "flap", "30:30", 0.5)) == (0, "flap", "30:30", 0.5)
        assert validate_seed(((1, "outer"), "inner")) == ((1, "outer"), "inner")

    @pytest.mark.parametrize("bad", ["0", True, False, 0.0, None, ()])
    def test_aliasing_roots_rejected(self, bad):
        with pytest.raises(ConfigurationError):
            validate_seed(bad)

    @pytest.mark.parametrize("bad", ["0", True, 1.5])
    def test_schedules_reject_bad_seeds(self, bad):
        config = FlappingConfig(30.0, 30.0, 0.5)
        with pytest.raises(ConfigurationError):
            FlappingSchedule(config, 4, seed=bad)



class TestRegionalOutage:
    REGIONS = [0, 0, 0, 1, 1, 1, 2, 2, 2]

    def make(self, severity=1.0, **kwargs):
        config = RegionalOutageConfig(start=100.0, duration=50.0, severity=severity)
        return RegionalOutage(self.REGIONS, config, seed=1, **kwargs)

    def test_full_severity_darkens_everyone_in_window(self):
        outage = self.make(severity=1.0)
        for node in range(len(self.REGIONS)):
            assert outage.is_online(node, 99.0)
            assert not outage.is_online(node, 100.0)
            assert not outage.is_online(node, 149.0)
            assert outage.is_online(node, 150.0)

    def test_partial_severity_hits_whole_regions(self):
        outage = self.make(severity=0.5)
        # round(0.5 * 3) = 2 regions dark; membership is region-wide
        assert len(outage.regions_down) == 2
        for node in range(len(self.REGIONS)):
            expected = self.REGIONS[node] in outage.regions_down
            assert outage.affects(node) == expected
            assert outage.is_online(node, 120.0) == (not expected)

    def test_zero_severity_no_outage(self):
        outage = self.make(severity=0.0)
        assert outage.regions_down == frozenset()
        assert all(outage.is_online(n, 120.0) for n in range(len(self.REGIONS)))

    def test_exempt_node_stays_online(self):
        outage = self.make(severity=1.0, always_online={0})
        assert outage.is_online(0, 120.0)
        assert outage.offline_intervals(0, 1000.0) == []

    def test_severity_sweeps_are_nested(self):
        """Raising the severity only adds regions (prefix of one permuted
        order), which is what makes success-vs-severity curves monotone by
        construction."""
        regions = [node % 5 for node in range(25)]
        for seed in (0, 1, 2):
            down_sets = []
            for severity in (0.0, 0.2, 0.4, 0.6, 0.8, 1.0):
                config = RegionalOutageConfig(start=10.0, duration=5.0, severity=severity)
                down_sets.append(RegionalOutage(regions, config, seed=seed).regions_down)
            for smaller, larger in zip(down_sets, down_sets[1:]):
                assert smaller <= larger
            assert down_sets[0] == frozenset()
            assert down_sets[-1] == frozenset(range(5))

    def test_single_region_rejected(self):
        config = RegionalOutageConfig(start=0.0, duration=1.0, severity=0.5)
        with pytest.raises(ConfigurationError, match="domain structure"):
            RegionalOutage([0, 0, 0], config)

    def test_invalid_config(self):
        with pytest.raises(ConfigurationError):
            RegionalOutageConfig(start=-1.0, duration=1.0, severity=0.5)
        with pytest.raises(ConfigurationError):
            RegionalOutageConfig(start=0.0, duration=0.0, severity=0.5)
        with pytest.raises(ConfigurationError):
            RegionalOutageConfig(start=0.0, duration=1.0, severity=1.5)

    def test_regions_from_transit_stub_attachment(self):
        underlay = TransitStubUnderlay.for_size(80, seed=0)
        attachment = underlay.random_attachment(40, seed=0)
        regions = regions_from_attachment(underlay, attachment)
        assert len(regions) == 40
        assert set(regions) <= set(range(underlay.num_transit_domains))
        assert len(set(regions)) >= 2

    def test_domainless_underlay_rejected(self):
        class Flat:
            pass

        with pytest.raises(ConfigurationError, match="domain structure"):
            regions_from_attachment(Flat(), [0, 1, 2])


class TestChurnWave:
    def test_intensity_one_matches_base_rates(self):
        config = ChurnWaveConfig(300.0, 300.0, 600.0, 150.0, 1.0)
        assert config.rate_multiplier(0.0) == 1.0
        assert config.rate_multiplier(700.0) == 1.0

    def test_intensity_one_degenerates_to_plain_churn(self):
        """Same seed, intensity 1: trajectories identical to ChurnSchedule."""
        from repro.perturbation import ChurnConfig, ChurnSchedule

        wave = ChurnWaveSchedule(
            ChurnWaveConfig(200.0, 100.0, 600.0, 150.0, 1.0), 12, seed=9
        )
        plain = ChurnSchedule(ChurnConfig(200.0, 100.0), 12, seed=9)
        for node in range(12):
            assert wave.offline_intervals(node, 5000.0) == plain.offline_intervals(
                node, 5000.0
            )

    def test_multiplier_profile(self):
        config = ChurnWaveConfig(300.0, 300.0, 600.0, 150.0, 4.0)
        assert config.rate_multiplier(10.0) == 4.0  # inside first wave
        assert config.rate_multiplier(150.0) == 1.0  # just after it
        assert config.rate_multiplier(610.0) == 4.0  # second wave
        assert config.rate_multiplier(-5.0) == 1.0

    def test_higher_intensity_means_more_flips(self):
        calm = ChurnWaveSchedule(
            ChurnWaveConfig(100.0, 100.0, 200.0, 100.0, 1.0), 40, seed=2
        )
        stormy = ChurnWaveSchedule(
            ChurnWaveConfig(100.0, 100.0, 200.0, 100.0, 16.0), 40, seed=2
        )
        horizon = 2000.0
        calm_flips = sum(
            len(calm.offline_intervals(node, horizon)) for node in range(40)
        )
        stormy_flips = sum(
            len(stormy.offline_intervals(node, horizon)) for node in range(40)
        )
        assert stormy_flips > calm_flips

    def test_invalid_config(self):
        with pytest.raises(ConfigurationError):
            ChurnWaveConfig(0.0, 300.0, 600.0, 150.0, 2.0)
        with pytest.raises(ConfigurationError):
            ChurnWaveConfig(300.0, 300.0, 600.0, 700.0, 2.0)  # duration > period
        with pytest.raises(ConfigurationError):
            ChurnWaveConfig(300.0, 300.0, 600.0, 150.0, 0.5)  # intensity < 1


class TestJoinStorm:
    def test_late_joiners_absent_then_present(self):
        storm = JoinStormSchedule(
            JoinStormConfig(arrival_time=100.0, late_fraction=0.5), 20, seed=3
        )
        assert len(storm.late_joiners) == 10
        for node in storm.late_joiners:
            assert not storm.is_online(node, 50.0)
            assert storm.is_online(node, 100.0)
            assert storm.offline_intervals(node, 200.0) == [(0.0, 100.0)]
        early = set(range(20)) - storm.late_joiners
        for node in early:
            assert storm.is_online(node, 50.0)
            assert storm.offline_intervals(node, 200.0) == []

    def test_exempt_nodes_never_late(self):
        storm = JoinStormSchedule(
            JoinStormConfig(arrival_time=100.0, late_fraction=1.0),
            10,
            seed=5,
            always_online={0, 1},
        )
        assert storm.late_joiners == frozenset(range(2, 10))

    def test_invalid_config(self):
        with pytest.raises(ConfigurationError):
            JoinStormConfig(arrival_time=0.0, late_fraction=0.5)
        with pytest.raises(ConfigurationError):
            JoinStormConfig(arrival_time=10.0, late_fraction=1.5)


class TestAdversarialRemoval:
    DEGREES = [5, 9, 1, 7, 3, 8, 2, 6, 0, 4]

    def test_degree_targeting_takes_the_hubs(self):
        removal = AdversarialRemoval(
            self.DEGREES, AdversarialRemovalConfig(fraction=0.3, start=10.0), seed=0
        )
        # highest degrees are 9 (node 1), 8 (node 5), 7 (node 3)
        assert removal.removed == frozenset({1, 3, 5})
        assert removal.is_online(1, 9.9)
        assert not removal.is_online(1, 10.0)
        assert not removal.is_online(1, 1e9)

    def test_ties_break_by_node_id(self):
        removal = AdversarialRemoval(
            [3, 3, 3, 3], AdversarialRemovalConfig(fraction=0.5), seed=0
        )
        assert removal.removed == frozenset({0, 1})

    def test_random_targeting_is_seeded(self):
        config = AdversarialRemovalConfig(fraction=0.4, targeting="random")
        a = AdversarialRemoval(self.DEGREES, config, seed=7)
        b = AdversarialRemoval(self.DEGREES, config, seed=7)
        c = AdversarialRemoval(self.DEGREES, config, seed=8)
        assert a.removed == b.removed
        assert len(a.removed) == 4
        assert a.removed != c.removed  # overwhelmingly likely across seeds

    def test_exempt_nodes_never_removed(self):
        removal = AdversarialRemoval(
            self.DEGREES,
            AdversarialRemovalConfig(fraction=1.0),
            seed=0,
            always_online={1},
        )
        assert 1 not in removal.removed
        assert removal.removed == frozenset(set(range(10)) - {1})

    def test_total_degrees_count_in_edges_for_directed(self):
        from repro.overlay.graph import OverlayGraph

        # 0 -> 1, 2 -> 1: node 1 has out-degree 0 but total degree 2
        overlay = OverlayGraph([[1], [], [1]], directed=True)
        removal = AdversarialRemoval(
            overlay.total_degrees, AdversarialRemovalConfig(fraction=0.34), seed=0
        )
        assert removal.removed == frozenset({1})

    def test_invalid_config(self):
        with pytest.raises(ConfigurationError):
            AdversarialRemovalConfig(fraction=-0.1)
        with pytest.raises(ConfigurationError):
            AdversarialRemovalConfig(fraction=0.5, targeting="psychic")


class TestScenarioTimeline:
    def test_conjunction_of_processes(self):
        flapping = FlappingSchedule(FlappingConfig(10.0, 10.0, 1.0), 6, seed=0)
        outage = RegionalOutage(
            [0, 0, 0, 1, 1, 1],
            RegionalOutageConfig(start=5.0, duration=10.0, severity=1.0),
            seed=0,
        )
        timeline = ScenarioTimeline([flapping, outage])
        assert timeline.num_nodes == 6
        for node in range(6):
            for t in (0.0, 7.0, 25.0, 60.0):
                assert timeline.is_online(node, t) == (
                    flapping.is_online(node, t) and outage.is_online(node, t)
                )

    def test_offline_intervals_union(self):
        outage_a = RegionalOutage(
            [0, 1],
            RegionalOutageConfig(start=10.0, duration=10.0, severity=1.0),
            seed=0,
        )
        outage_b = RegionalOutage(
            [0, 1],
            RegionalOutageConfig(start=15.0, duration=10.0, severity=1.0),
            seed=0,
        )
        timeline = ScenarioTimeline([outage_a, outage_b])
        assert timeline.offline_intervals(0, 100.0) == [(10.0, 25.0)]

    def test_always_online_is_intersection(self):
        storm = JoinStormSchedule(
            JoinStormConfig(100.0, 1.0), 4, seed=0, always_online={0, 1}
        )
        outage = RegionalOutage(
            [0, 0, 1, 1],
            RegionalOutageConfig(start=0.0, duration=1.0, severity=1.0),
            seed=0,
            always_online={1, 2},
        )
        timeline = ScenarioTimeline([storm, outage])
        assert timeline.always_online == frozenset({1})

    def test_mismatched_sizes_rejected(self):
        a = JoinStormSchedule(JoinStormConfig(10.0, 0.5), 4, seed=0)
        b = JoinStormSchedule(JoinStormConfig(10.0, 0.5), 5, seed=0)
        with pytest.raises(ConfigurationError):
            ScenarioTimeline([a, b])

    def test_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            ScenarioTimeline([])

    def test_a_protocol_only_process_joins_the_bulk_mask(self):
        """A component with ``is_online`` and no ``online_mask`` is read
        node by node; the mask is the conjunction of the point queries."""

        class EvenNodesOnline:
            num_nodes = 6
            always_online = frozenset()

            def is_online(self, node, time):
                return node % 2 == 0 or time > 50.0

            def offline_intervals(self, node, until):
                return [] if node % 2 == 0 else [(0.0, min(50.0, until))]

        outage = RegionalOutage(
            [0, 0, 0, 1, 1, 1],
            RegionalOutageConfig(start=5.0, duration=10.0, severity=1.0),
            seed=0,
        )
        timeline = ScenarioTimeline([EvenNodesOnline(), outage])
        for t in (0.0, 7.0, 60.0):
            mask = timeline.online_mask(t)
            assert mask.dtype == bool
            assert mask.tolist() == [timeline.is_online(node, t) for node in range(6)]
        assert timeline.online_mask(0.0).tolist() == [True, False] * 3
        assert not timeline.online_mask(7.0).any()

    def test_timelines_nest(self):
        a = JoinStormSchedule(JoinStormConfig(10.0, 0.5), 4, seed=0)
        b = JoinStormSchedule(JoinStormConfig(20.0, 0.5), 4, seed=1)
        nested = ScenarioTimeline([ScenarioTimeline([a]), b])
        for node in range(4):
            assert nested.is_online(node, 15.0) == (
                a.is_online(node, 15.0) and b.is_online(node, 15.0)
            )


class TestIntervalRejoin:
    CONFIG = PastryConfig()

    def test_short_windows_need_no_rejoin(self):
        # 30s offline windows are under the ~69s detection horizon
        flapping = FlappingSchedule(FlappingConfig(30.0, 30.0, 1.0), 8, seed=0)
        adjusted = IntervalRejoinAvailability(flapping, self.CONFIG, seed=0)
        for node in range(8):
            for t in (10.0, 100.0, 500.0):
                assert adjusted.is_online(node, t) == flapping.is_online(node, t)

    def test_storm_arrivals_pay_rejoin_delay(self):
        storm = JoinStormSchedule(
            JoinStormConfig(arrival_time=500.0, late_fraction=0.5),
            20,
            seed=1,
            always_online={0},
        )
        # compose with flapping so some rejoin contacts are offline
        flapping = FlappingSchedule(
            FlappingConfig(30.0, 30.0, 0.5), 20, seed=1, always_online={0}
        )
        timeline = ScenarioTimeline([flapping, storm])
        adjusted = IntervalRejoinAvailability(timeline, self.CONFIG, seed=1)
        late = sorted(storm.late_joiners)
        # absent well before the storm either way
        assert not any(adjusted.is_online(node, 100.0) for node in late)
        # rejoin can only delay availability relative to ground truth,
        # and by the end of the simulation everyone who is up has rejoined
        delayed = 0
        for node in late:
            for t in (505.0, 600.0, 2000.0):
                raw = timeline.is_online(node, t)
                got = adjusted.is_online(node, t)
                assert (not raw) or got or t < 2000.0  # delay only, never early
                if raw and not got:
                    delayed += 1
        assert delayed > 0  # the storm actually thrashed some rejoins

    def test_permanent_removal_never_returns(self):
        removal = AdversarialRemoval(
            [3, 1, 2, 0], AdversarialRemovalConfig(fraction=0.5, start=100.0), seed=0
        )
        adjusted = IntervalRejoinAvailability(removal, self.CONFIG, seed=0)
        for node in removal.removed:
            assert adjusted.is_online(node, 50.0)
            assert not adjusted.is_online(node, 101.0)
            assert not adjusted.is_online(node, 1e6)


class TestScenarioCatalogue:
    def test_families_cover_the_engine(self):
        names = {family.name for family in scenario_families()}
        assert names == {
            "flapping",
            "churn",
            "regional-outage",
            "churn-wave",
            "join-storm",
            "adversarial-removal",
        }

    def test_every_family_has_a_registered_sweep(self):
        """The family -> experiment linkage lives in the registry metadata
        (spec.scenario_family), not in the catalogue: every family must be
        swept by at least one registered experiment, and every declared
        scenario_family must name a real catalogue entry."""
        from repro.experiments import list_experiments

        families = {family.name for family in scenario_families()}
        swept: set[str] = set()
        for spec in list_experiments():
            if spec.scenario_family is not None:
                assert spec.scenario_family in families, spec.experiment_id
                swept.add(spec.scenario_family)
        assert swept == families

    def test_unknown_family(self):
        with pytest.raises(ConfigurationError):
            get_family("meteor-strike")

    def test_the_table_is_single(self):
        """What ``scenarios`` prints, what ``compose`` accepts and what
        ``PerturbationTestbed.process`` builds are one table: compose keeps
        none of its own, and the families it offers are the catalogue's."""
        import repro.experiments.compose as compose_module
        import repro.perturbation.scenario as scenario_module
        from repro.errors import ExperimentError

        assert not hasattr(compose_module, "SCENARIO_FAMILIES")
        assert compose_module.get_family is scenario_module.get_family
        source = {
            "experiment": {"id": "single-table", "title": "single table"},
            "sweep": {"column": "x", "values": [0.5]},
            "scenario": [{"family": "meteor-strike"}],
        }
        with pytest.raises(ExperimentError) as info:
            compose_module.compose_spec(source)
        offered = str(info.value).split("choose from ")[1]
        assert offered == str(sorted(f.name for f in scenario_families()))
        for family in scenario_families():
            assert family.process_class.__name__ in family.process
            assert family.optional <= set(family.schema)
            with pytest.raises(ExperimentError, match="missing required parameter"):
                compose_module.compose_spec(
                    {**source, "scenario": [{"family": family.name}]}
                )


class TestScenarioExperiments:
    NEW_IDS = ("ext-outage", "ext-wave", "ext-joinstorm", "ext-adversarial")

    @pytest.mark.parametrize("experiment_id", NEW_IDS)
    def test_runs_at_smoke_scale(self, experiment_id):
        result = run_experiment(experiment_id, scale="smoke", seed=0)
        assert result.rows
        assert result.key_columns
        key_indices = [result.columns.index(c) for c in result.key_columns]
        for row in result.rows:
            assert len(row) == len(result.columns)
            for i, cell in enumerate(row):
                if i not in key_indices and isinstance(cell, (int, float)):
                    assert 0.0 <= cell <= 100.0

    def test_listed_by_cli(self, capsys):
        from repro.experiments.cli import main

        assert main(["list"]) == 0
        output = capsys.readouterr().out
        for experiment_id in self.NEW_IDS:
            assert experiment_id in output

    @pytest.mark.parametrize("seed", [0, 1])
    def test_outage_success_degrades_monotonically(self, seed):
        """The issue's integration property: composed flapping + regional
        outage lookup success is non-increasing in outage severity, for
        every protocol variant."""
        result = outage_spec.run(scale="smoke", seed=seed)
        severities = result.column("outage_severity")
        assert severities == sorted(severities)
        for column in ("MSPastry", "MPIL with DS", "MPIL without DS"):
            rates = result.column(column)
            assert all(
                later <= earlier for earlier, later in zip(rates, rates[1:])
            ), (column, rates)

    def test_outage_requires_domain_structure(self, monkeypatch):
        """ext-outage on a single-region underlay fails with a
        ConfigurationError, not a traceback."""
        single = TransitStubUnderlay.for_size(12, seed=0)  # 1 transit domain
        monkeypatch.setattr(
            TransitStubUnderlay, "for_size", classmethod(lambda cls, n, seed=0: single)
        )
        with pytest.raises(ConfigurationError, match="domain structure"):
            outage_spec.run(scale="smoke", seed=0)

    def test_joinstorm_pre_storm_success_drops_with_fraction(self):
        result = run_experiment("ext-joinstorm", scale="smoke", seed=0)
        pre = result.filtered(phase="pre")
        fractions = [row[0] for row in pre]
        assert fractions == sorted(fractions)
        nods = result.columns.index("MPIL without DS")
        rates = [row[nods] for row in pre]
        assert all(later <= earlier for earlier, later in zip(rates, rates[1:]))

    def test_adversarial_zero_fraction_is_a_clean_baseline(self):
        result = run_experiment("ext-adversarial", scale="smoke", seed=0)
        baseline = result.filtered(removed_fraction=0.0)[0]
        # nothing removed: targeted and random arms are the same network,
        # and success is at the static overlay's (near-perfect) level
        assert baseline[1:4] == baseline[4:7]
        assert all(rate >= 90.0 for rate in baseline[1:])
