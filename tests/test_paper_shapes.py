"""The paper's qualitative shapes, asserted on every experiment family.

The evaluation (Section 6) is a set of shapes — MPIL stays above MSPastry
under heavy flapping (Figure 11), insertion replicas stay under
``max_flows x per-flow replicas`` (Figure 9), success never rises as more
of the network fails — and each test here states one figure's or table's
shape against a direct ``smoke`` seed-0 run.  Absolute numbers are pinned
elsewhere (``tests/goldens/smoke_seed1.json``); these say what the numbers
must *mean*.
"""

from __future__ import annotations

from repro.experiments.base import ExperimentResult
from repro.experiments.registry import run_experiment


def _result(experiment_id: str) -> ExperimentResult:
    return run_experiment(experiment_id, "smoke", 0)


# ---------------------------------------------------------------------------
# Analytical results (Section 5)
# ---------------------------------------------------------------------------


def test_fig7_expected_local_maxima():
    result = _result("fig7")
    # maxima decrease with degree and increase with N
    for n in sorted(set(result.column("nodes"))):
        series = [row for row in result.rows if row[0] == n]
        values = [row[2] for row in sorted(series, key=lambda r: r[1])]
        assert values == sorted(values, reverse=True)


def test_fig8_expected_replicas_complete():
    # the base-4 series is the one matching the paper's 1.55-1.63 plot
    result = _result("fig8")
    base4 = [row for row in result.rows if row[0].startswith("base-4")]
    values = [row[2] for row in sorted(base4, key=lambda r: r[1])]
    assert values == sorted(values)  # slowly increasing in N
    assert all(1.4 < v < 1.7 for v in values)


# ---------------------------------------------------------------------------
# Static overlays (Section 6.1): Figures 9-10, Tables 1-3
# ---------------------------------------------------------------------------


def test_fig9_insertion_behaviour():
    # replicas and traffic stay well under the max_flows x per-flow-replicas
    # = 150 cap
    result = _result("fig9")
    cap = 30 * 5
    for _family, _n, replicas, traffic, _dups, flows in result.rows:
        assert replicas <= cap
        assert flows <= 30
        assert traffic > 0


def test_fig10_lookup_latency_and_traffic():
    # both stay roughly flat in N (bounded by the flow/replica budget, not
    # by overlay size)
    result = _result("fig10")
    for _family, _n, hops, traffic, first_traffic, success in result.rows:
        assert 0 <= hops < 20
        assert first_traffic <= traffic
        assert success >= 80.0


def test_table1_powerlaw_success():
    # success grows in per-flow replicas and in max_flows
    result = _result("tab1")
    for row in result.rows:
        r_values = row[2:]
        assert all(0.0 <= v <= 100.0 for v in r_values)
        # r=5 must beat r=1 (redundancy pays)
        assert r_values[-1] >= r_values[0]


def test_table2_random_success():
    # already high at r=1 and saturating ~100% for r >= 2
    result = _result("tab2")
    for row in result.rows:
        r_values = row[2:]
        assert r_values[-1] >= r_values[0]
        assert r_values[-1] >= 90.0  # (30,5)-insertion + r=5 lookup saturates


def test_table3_actual_flows():
    # below the budget of 10, growing with overlay size; the reproduction's
    # absolute flow counts sit below the paper's 8.78-9.63 (tie statistics
    # of the substitute topology generators differ)
    result = _result("tab3")
    for _family, _n, flows in result.rows:
        assert 1.0 <= flows <= 10.0
    for family in ("power-law", "random"):
        series = sorted(
            (row for row in result.rows if row[0] == family), key=lambda r: r[1]
        )
        if len(series) >= 2:
            assert series[-1][2] >= series[0][2] - 0.5  # non-collapsing in N


# ---------------------------------------------------------------------------
# Perturbed Pastry overlays (Section 6.2): Figures 1, 11, 12
# ---------------------------------------------------------------------------


def test_fig1_pastry_under_perturbation():
    # 45:15 stays high at low p; 300:300 collapses toward 0 for p >= 0.8
    result = _result("fig1")
    by_period = {}
    for period, prob, success, *_rest in result.rows:
        by_period.setdefault(period, {})[prob] = success
    # sanity: every curve decays from p=0.1 to p=1.0
    for period, curve in by_period.items():
        assert curve[min(curve)] >= curve[max(curve)], period
    # the long-perturbation curve collapses hardest
    assert by_period["300:300"][1.0] <= by_period["45:15"][1.0]


def test_fig11_robustness_comparison():
    result = _result("fig11")
    # at the heaviest long-term perturbation, MPIL must beat plain MSPastry
    heavy = [
        row
        for row in result.rows
        if row[0] == "300:300" and row[1] == max(result.column("flap_prob"))
    ]
    assert heavy
    _period, _p, pastry, _rr, mpil_ds, mpil_nods = heavy[0]
    assert max(mpil_ds, mpil_nods) >= pastry


def test_fig12_traffic_comparison():
    # MSPastry's maintenance probes dominate total traffic while MPIL runs
    # no maintenance at all.  (The paper's other half — MPIL sends more
    # *lookup* messages — needs realistic path lengths, which the tiny
    # smoke overlay does not have.)
    result = _result("fig12")
    rows = result.rows
    pastry_rows = [r for r in rows if r[0] == "MSPastry"]
    nods_rows = [r for r in rows if r[0] == "MPIL without DS"]
    assert pastry_rows and nods_rows
    total_pastry = sum(r[5] for r in pastry_rows)
    total_nods = sum(r[5] for r in nods_rows)
    assert total_pastry > total_nods  # maintenance dominates overall


# ---------------------------------------------------------------------------
# Ablations and the intro's baseline triangle
# ---------------------------------------------------------------------------


def test_ablation_metric():
    result = _result("ablation-metric")
    success = {row[0]: row[1] for row in result.rows}
    traffic = {row[0]: row[3] for row in result.rows}
    # Section 4.2: prefix/suffix metrics barely distinguish neighbors —
    # nearly every neighbor ties at score 0, so under MPIL's tie-splitting
    # they degenerate into flooding.  The common-digits metric reaches
    # comparable success at a fraction of the traffic.
    assert success["common-digits"] >= success["prefix"] - 15.0
    assert success["common-digits"] >= success["suffix"] - 15.0
    assert traffic["common-digits"] < traffic["prefix"]
    assert traffic["common-digits"] < traffic["suffix"]


def test_ablation_duplicate_suppression():
    result = _result("ablation-ds")
    for family in ("power-law", "random"):
        on = result.filtered(family=family, ds="on")[0]
        off = result.filtered(family=family, ds="off")[0]
        assert off[3] >= on[3]  # DS off can only increase traffic


def test_ablation_flow_budget():
    result = _result("ablation-flows")
    budgets = result.column("max_flows")
    success = result.column("success_%")
    assert budgets == sorted(budgets)
    assert success[-1] >= success[0]  # more flows, no worse success


def test_ablation_tiebreak():
    result = _result("ablation-tiebreak")
    rates = result.column("success_%")
    assert max(rates) - min(rates) <= 25.0  # policy-insensitive


def test_baseline_comparison():
    # flooding reaches the highest success at an order of magnitude more
    # traffic; random walks are cheap but the least reliable; MPIL combines
    # near-flooding success with near-walk traffic
    result = _result("baseline-comparison")
    for family in ("power-law", "random"):
        rows = {row[1]: row for row in result.rows if row[0] == family}
        mpil = next(v for k, v in rows.items() if k.startswith("mpil"))
        flood = next(v for k, v in rows.items() if k.startswith("flood"))
        walks = next(v for k, v in rows.items() if k.startswith("walks"))
        # flooding costs far more traffic than MPIL
        assert flood[3] > 3 * mpil[3]
        # MPIL is competitive with flooding on success
        assert mpil[2] >= flood[2] - 20.0
        # and at least as reliable as blind random walks
        assert mpil[2] >= walks[2] - 5.0


# ---------------------------------------------------------------------------
# Scenario-engine extensions
# ---------------------------------------------------------------------------


def test_ext_churn():
    # with a memoryless renewal process at fixed 50% availability, success
    # is governed by instantaneous availability rather than churn *speed*
    result = _result("ext-churn")
    sessions = result.column("mean_session_s")
    assert sessions == sorted(sessions, reverse=True)
    for column in ("MSPastry", "MPIL with DS", "MPIL without DS"):
        values = result.column(column)
        assert all(0.0 <= v <= 100.0 for v in values)
        # roughly flat across churn speeds (availability-dominated)
        assert max(values) - min(values) <= 35.0
    # maintenance-free MPIL stays competitive with full-maintenance Pastry
    pastry_mean = sum(result.column("MSPastry")) / len(sessions)
    nods_mean = sum(result.column("MPIL without DS")) / len(sessions)
    assert nods_mean >= pastry_mean - 15.0


def test_ext_wave():
    result = _result("ext-wave")
    intensities = result.column("wave_intensity")
    assert intensities == sorted(intensities)
    assert intensities[0] == 1.0
    for column in (
        "MSPastry",
        "MPIL with DS",
        "MPIL without DS",
        "MSPastry (in wave)",
        "MPIL with DS (in wave)",
        "MPIL without DS (in wave)",
    ):
        values = result.column(column)
        assert all(0.0 <= v <= 100.0 for v in values)


def test_ext_joinstorm():
    result = _result("ext-joinstorm")
    fractions = sorted(set(result.column("storm_fraction")))
    for column in ("MSPastry", "MPIL with DS", "MPIL without DS"):
        index = result.columns.index(column)
        # pre-storm success is non-increasing in the storm fraction
        pre = [result.filtered(storm_fraction=f, phase="pre")[0][index] for f in fractions]
        assert all(later <= earlier for earlier, later in zip(pre, pre[1:]))
        # steady state beats the storm's pre phase at the largest fraction
        steady = result.filtered(storm_fraction=fractions[-1], phase="steady")[0][index]
        assert steady >= pre[-1]
        for row in result.rows:
            assert 0.0 <= row[index] <= 100.0


def test_ext_outage():
    # success during the outage window falls as more transit-stub regions
    # go dark; at severity 1.0 only replicas held by the exempt client
    # remain reachable
    result = _result("ext-outage")
    severities = result.column("outage_severity")
    assert severities == sorted(severities)
    assert severities[0] == 0.0 and severities[-1] == 1.0
    for column in ("MSPastry", "MPIL with DS", "MPIL without DS"):
        values = result.column(column)
        assert all(0.0 <= v <= 100.0 for v in values)
        # a full regional blackout must cost most of the baseline success
        assert values[-1] <= values[0]
        assert values[-1] <= 0.5 * max(values[0], 1.0)


def test_ext_adversarial():
    # removing the highest-degree nodes hurts at least as much as removing
    # the same number of random nodes (Aspnes et al.'s targeted-deletion
    # gap); the zero-removal row is a fully-online baseline
    result = _result("ext-adversarial")
    fractions = result.column("removed_fraction")
    assert fractions == sorted(fractions)
    if fractions[0] == 0.0:
        # nothing removed: targeted and random arms are the same network
        baseline = result.rows[0]
        assert baseline[1:4] == baseline[4:7]
        assert all(v >= 90.0 for v in baseline[1:])
    for column in result.columns[1:]:
        values = result.column(column)
        assert all(0.0 <= v <= 100.0 for v in values)
        assert values[-1] <= values[0]
