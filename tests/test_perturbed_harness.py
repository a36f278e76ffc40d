"""Tests for the shared perturbation-experiment machinery."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError, ExperimentError
from repro.experiments.base import success_percent
from repro.experiments.perturbed import (
    ALL_VARIANTS,
    MPIL_MAX_FLOWS,
    MPIL_PER_FLOW_REPLICAS,
    VARIANT_LABELS,
    build_testbed,
    iter_stage2_lookups,
    run_cell,
    stage2_successes,
    variant_views,
)
from repro.pastry.rejoin import IntervalRejoinAvailability
from repro.pastry.views import ProbedViewOracle
from repro.perturbation import (
    AdversarialRemoval,
    AdversarialRemovalConfig,
    ChurnConfig,
    ChurnSchedule,
    ChurnWaveConfig,
    ChurnWaveSchedule,
    FlappingConfig,
    FlappingSchedule,
    JoinStormConfig,
    JoinStormSchedule,
    RegionalOutage,
    RegionalOutageConfig,
    scenario_families,
)
from repro.sim.counters import TrafficCounters


@pytest.fixture(scope="module")
def testbed():
    return build_testbed(num_nodes=70, num_inserts=20, seed=0)


class TestTestbed:
    def test_stage1_state(self, testbed):
        assert len(testbed.objects_plain) == 20
        assert len(testbed.objects_rr) == 20
        assert len(testbed.objects_mpil) == 20
        for key in testbed.objects_plain:
            assert testbed.pastry.directory.replica_count(key) == 1
        for key in testbed.objects_rr:
            assert testbed.pastry.directory.replica_count(key) >= 1
        for key in testbed.objects_mpil:
            assert testbed.mpil.directory.replica_count(key) >= 1

    def test_mpil_parameters_match_paper(self):
        assert MPIL_MAX_FLOWS == 10
        assert MPIL_PER_FLOW_REPLICAS == 5

    def test_variant_labels(self):
        assert VARIANT_LABELS["pastry"] == "MSPastry"
        assert VARIANT_LABELS["mpil-nods"] == "MPIL without DS"


class TestRunCell:
    def test_all_variants_present(self, testbed):
        cells = run_cell(testbed, "30:30", 0.5, 10, variants=ALL_VARIANTS)
        assert [c.variant for c in cells] == list(ALL_VARIANTS)
        for cell in cells:
            assert cell.lookups == 10
            assert 0.0 <= cell.success_rate <= 100.0
            assert cell.duration == 10 * 60.0

    def test_unknown_variant_rejected(self, testbed):
        with pytest.raises(ExperimentError):
            run_cell(testbed, "30:30", 0.5, 5, variants=("chord",))

    def test_zero_probability_near_perfect(self, testbed):
        cells = run_cell(testbed, "30:30", 0.0, 15, variants=ALL_VARIANTS)
        for cell in cells:
            assert cell.success_rate >= 85.0

    def test_maintenance_traffic_only_for_pastry(self, testbed):
        cells = run_cell(testbed, "30:30", 0.5, 8, variants=ALL_VARIANTS)
        by_variant = {c.variant: c for c in cells}
        assert by_variant["pastry"].maintenance_messages > 0
        assert by_variant["mpil-ds"].maintenance_messages == 0
        assert by_variant["mpil-nods"].maintenance_messages == 0

    def test_pastry_total_includes_maintenance(self, testbed):
        cells = run_cell(testbed, "30:30", 0.5, 8, variants=("pastry",))
        cell = cells[0]
        assert cell.total_messages >= cell.maintenance_messages
        assert cell.total_messages >= cell.lookup_messages

    def test_heavy_perturbation_hurts_pastry_more_than_mpil_at_300(self, testbed):
        cells = run_cell(testbed, "300:300", 1.0, 25, variants=("pastry", "mpil-nods"))
        by_variant = {c.variant: c for c in cells}
        assert (
            by_variant["mpil-nods"].success_rate
            >= by_variant["pastry"].success_rate
        )

    def test_determinism(self, testbed):
        a = run_cell(testbed, "30:30", 0.7, 8, variants=("pastry",))
        b = run_cell(testbed, "30:30", 0.7, 8, variants=("pastry",))
        assert a[0].success_rate == b[0].success_rate
        assert a[0].lookup_messages == b[0].lookup_messages


@pytest.fixture(scope="module")
def schedule(testbed):
    return FlappingSchedule(
        FlappingConfig.from_label("30:30", 0.5),
        testbed.pastry.n,
        seed=(0, "harness-flap"),
        always_online={testbed.client},
    )


class TestVariantViews:
    @pytest.mark.parametrize("variant", ("mpil-ds", "mpil-nods"))
    def test_mpil_sees_the_raw_schedule(self, testbed, schedule, variant):
        assert variant_views(testbed, variant, schedule, (0, "v"), rejoin_seed=(0, "r")) == (
            schedule,
            None,
        )

    @pytest.mark.parametrize("variant", ("pastry", "pastry-rr"))
    def test_pastry_sees_it_through_probed_views(self, testbed, schedule, variant):
        availability, views = variant_views(testbed, variant, schedule, (0, "v"))
        assert availability is schedule
        assert isinstance(views, ProbedViewOracle)
        assert views.schedule is schedule

    @pytest.mark.parametrize("variant", ("pastry", "pastry-rr"))
    def test_rejoin_seed_puts_interval_rejoin_underneath(
        self, testbed, schedule, variant
    ):
        availability, views = variant_views(
            testbed, variant, schedule, (0, "v"), rejoin_seed=(0, "r")
        )
        assert isinstance(availability, IntervalRejoinAvailability)
        assert isinstance(views, ProbedViewOracle)
        assert views.schedule is availability


class TestStage2Loop:
    INDICES = (0, 3, 7, 21)  # 21 wraps around the 20 stage-1 objects
    SPACING = 45.0

    @pytest.mark.parametrize("variant", ALL_VARIANTS)
    def test_outcomes_equal_direct_calls(self, schedule, variant):
        # two identically built testbeds: a timed MPIL network's reply
        # order depends on its own call history, so each side gets its own
        loop_bed = build_testbed(num_nodes=70, num_inserts=20, seed=0)
        direct_bed = build_testbed(num_nodes=70, num_inserts=20, seed=0)
        seeds = {"views_seed": (0, "harness-views"), "rejoin_seed": (0, "rejoin")}
        got = list(
            iter_stage2_lookups(
                loop_bed,
                variant,
                self.INDICES,
                self.SPACING,
                *variant_views(loop_bed, variant, schedule, **seeds),
            )
        )
        counters = TrafficCounters()
        for _i, outcome in got:
            counters.merge(outcome.counters)
        availability, views = variant_views(direct_bed, variant, schedule, **seeds)
        direct = TrafficCounters()
        expected = []
        for i in self.INDICES:
            start = self.SPACING * (i + 1)
            if variant.startswith("pastry"):
                objects = (
                    direct_bed.objects_plain
                    if variant == "pastry"
                    else direct_bed.objects_rr
                )
                outcome = direct_bed.pastry.lookup(
                    direct_bed.client,
                    objects[i % 20],
                    start_time=start,
                    availability=availability,
                    views=views,
                )
            else:
                outcome = direct_bed.mpil.lookup_at(
                    direct_bed.client,
                    direct_bed.objects_mpil[i % 20],
                    start_time=start,
                    availability=schedule,
                    duplicate_suppression=variant == "mpil-ds",
                )
            direct.merge(outcome.counters)
            expected.append((i, outcome))
        assert got == expected
        assert counters == direct
        assert counters.messages_sent > 0

    def test_unknown_variant_rejected(self, testbed, schedule):
        with pytest.raises(ExperimentError, match="unknown variant"):
            next(iter_stage2_lookups(testbed, "chord", (0,), 60.0, schedule))

    @pytest.mark.parametrize("variant", ALL_VARIANTS)
    def test_no_lookups_is_one_line_error(self, testbed, schedule, variant):
        with pytest.raises(ExperimentError, match="at least one lookup") as info:
            next(iter_stage2_lookups(testbed, variant, range(0), 60.0, schedule))
        assert "\n" not in str(info.value)

    def test_empty_stage1_pool_is_one_line_error(self, schedule):
        empty = build_testbed(num_nodes=70, num_inserts=0, seed=0)
        for variant in ALL_VARIANTS:
            with pytest.raises(ExperimentError, match="0 object"):
                next(iter_stage2_lookups(empty, variant, range(3), 60.0, schedule))
        with pytest.raises(ExperimentError, match="0 object"):
            run_cell(empty, "30:30", 0.5, 3)
        with pytest.raises(ExperimentError, match="0 lookup"):
            run_cell(build_testbed(num_nodes=70, num_inserts=5, seed=0), "30:30", 0.5, 0)


def reference_process(testbed, family, seed, **params):
    """What the experiment layer spelled out by hand, 12 times over nine
    modules, before ``PerturbationTestbed.process``: each family's config
    and constructor, laid over the population, the regions or the neighbor
    graph's total degrees, with the client exempt.  Kept as the oracle."""
    client = {testbed.client}
    n = testbed.pastry.n
    if family == "flapping":
        config = FlappingConfig.from_label(params["period"], params["probability"])
        return FlappingSchedule(config, n, seed=seed, always_online=client)
    if family == "churn":
        return ChurnSchedule(ChurnConfig(**params), n, seed=seed, always_online=client)
    if family == "churn-wave":
        return ChurnWaveSchedule(
            ChurnWaveConfig(**params), n, seed=seed, always_online=client
        )
    if family == "join-storm":
        return JoinStormSchedule(
            JoinStormConfig(**params), n, seed=seed, always_online=client
        )
    if family == "regional-outage":
        return RegionalOutage(
            testbed.regions, RegionalOutageConfig(**params), seed=seed, always_online=client
        )
    assert family == "adversarial-removal"
    return AdversarialRemoval(
        testbed.mpil.overlay.total_degrees,
        AdversarialRemovalConfig(**params),
        seed=seed,
        always_online=client,
    )


#: one parameter set per family (two for the family with an optional one)
PROCESS_CASES = [
    ("flapping", {"period": "30:30", "probability": 0.5}),
    ("churn", {"mean_session": 120.0, "mean_downtime": 60.0}),
    (
        "churn-wave",
        {
            "mean_session": 300.0,
            "mean_downtime": 300.0,
            "wave_period": 600.0,
            "wave_duration": 150.0,
            "intensity": 4.0,
        },
    ),
    ("join-storm", {"arrival_time": 200.0, "late_fraction": 0.4}),
    ("regional-outage", {"start": 90.0, "duration": 300.0, "severity": 0.5}),
    ("adversarial-removal", {"fraction": 0.2, "start": 30.0}),
    ("adversarial-removal", {"fraction": 0.2, "start": 30.0, "targeting": "random"}),
]


class TestProcess:
    HORIZON = 1200.0

    def test_cases_cover_every_family(self):
        assert {name for name, _ in PROCESS_CASES} == {
            family.name for family in scenario_families()
        }

    @pytest.mark.parametrize("seed", [3, (1, "cell", 0.5)])
    @pytest.mark.parametrize("family, params", PROCESS_CASES)
    def test_agrees_with_the_hand_written_construction(
        self, testbed, family, params, seed
    ):
        got = testbed.process(family, seed, **params)
        expected = reference_process(testbed, family, seed, **params)
        assert type(got) is type(expected)
        assert got.config == expected.config
        assert got.always_online == expected.always_online == {testbed.client}
        assert got.num_nodes == expected.num_nodes == testbed.pastry.n
        times = [0.0, 29.9, 31.0, 95.0, 150.5, 200.0, 389.9, 601.0, 1199.0]
        for node in range(0, testbed.pastry.n, 3):
            assert got.offline_intervals(node, self.HORIZON) == expected.offline_intervals(
                node, self.HORIZON
            )
            for time in times:
                assert got.is_online(node, time) == expected.is_online(node, time)
        # the perturbation is real: someone besides the client goes offline
        assert any(
            got.offline_intervals(node, self.HORIZON) for node in range(testbed.pastry.n)
        )

    def test_client_never_goes_offline(self, testbed):
        for family, params in PROCESS_CASES:
            process = testbed.process(family, 0, **params)
            assert process.offline_intervals(testbed.client, self.HORIZON) == []

    def test_unknown_family_and_bad_range_are_configuration_errors(self, testbed):
        with pytest.raises(ConfigurationError, match="unknown scenario family"):
            testbed.process("meteor-strike", 0)
        with pytest.raises(ConfigurationError, match="severity must be in"):
            testbed.process(
                "regional-outage", 0, start=0.0, duration=60.0, severity=1.5
            )


class TestStage2Successes:
    INDICES = range(4, 12)

    @pytest.mark.parametrize("rejoin_seed", [None, (0, "rejoin")])
    @pytest.mark.parametrize("variant", ALL_VARIANTS)
    def test_flags_are_the_outcomes_of_the_loop_it_replaced(
        self, schedule, variant, rejoin_seed
    ):
        # the loop five ``_run_variant`` functions and ``compose`` each
        # spelled out: variant_views, iter_stage2_lookups, outcome.success
        helper_bed = build_testbed(num_nodes=70, num_inserts=20, seed=0)
        loop_bed = build_testbed(num_nodes=70, num_inserts=20, seed=0)
        flags = stage2_successes(
            helper_bed, variant, schedule, self.INDICES, 60.0, (0, "views"), rejoin_seed
        )
        availability, views = variant_views(
            loop_bed, variant, schedule, (0, "views"), rejoin_seed=rejoin_seed
        )
        expected = [
            outcome.success
            for _i, outcome in iter_stage2_lookups(
                loop_bed, variant, self.INDICES, 60.0, availability, views
            )
        ]
        assert flags == expected
        assert all(type(flag) is bool for flag in flags)
        assert len(flags) == len(self.INDICES)

    def test_a_stage2_schedule_does_not_outlive_its_lookups(self):
        """The schedule a variant's stage 2 ran under is an argument of its
        lookups, not state left on the shared MPIL network: a later lookup
        that names no availability runs with everyone online.  When stage 2
        set it as an attribute, these lookups lost copies to nodes the
        earlier schedule had taken offline."""
        bed = build_testbed(num_nodes=80, num_inserts=25, seed=1)
        flapping = bed.process("flapping", (1, "leak"), period="30:30", probability=1.0)
        flags = stage2_successes(bed, "mpil-ds", flapping, range(25), 60.0, (1, "views"))
        assert not all(flags)  # the schedule did take nodes offline
        lost = sum(
            bed.mpil.lookup_at(bed.client, key, 60.0 * (i + 1)).counters.lost_offline
            for i, key in enumerate(bed.objects_mpil)
        )
        assert lost == 0

    def test_no_lookups_is_the_loop_s_one_line_error(self, testbed, schedule):
        with pytest.raises(ExperimentError, match="at least one lookup"):
            stage2_successes(testbed, "pastry", schedule, range(0), 60.0, (0, "v"))

    def test_percent(self):
        assert success_percent([True, False, True]) == 66.7
        assert success_percent([False]) == 0.0
        assert success_percent([]) == 0.0  # e.g. no lookup fell inside a wave
