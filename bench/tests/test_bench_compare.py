"""``bench/compare.py`` verdicts and ``bench/clock.py`` arithmetic."""

from bench import clock
from bench.compare import verdict


def test_ok_when_the_change_is_inside_the_bound():
    result, change = verdict([1.0, 1.01, 0.99], [1.04, 1.05, 1.03], "lower", 0.10)
    assert result == "ok"
    assert abs(change - 0.04) < 1e-9


def test_regressed_when_worse_by_more_than_the_bound():
    assert verdict([1.0, 1.01, 0.99], [1.2, 1.21, 1.19], "lower", 0.10)[0] == "regressed"
    assert verdict([100.0, 101.0, 99.0], [80.0, 81.0, 79.0], "higher", 0.10)[0] == "regressed"


def test_a_gain_is_never_a_regression():
    assert verdict([1.0, 1.01, 0.99], [0.5, 0.51, 0.49], "lower", 0.10)[0] == "ok"
    assert verdict([100.0, 101.0, 99.0], [150.0, 151.0, 149.0], "higher", 0.10)[0] == "ok"


def test_unresolved_when_spread_exceeds_the_bound_and_runs_interleave():
    noisy_a = [1.0, 1.3, 0.8, 1.2, 0.9]
    noisy_b = [1.1, 1.25, 0.85, 1.15, 0.95]
    assert verdict(noisy_a, noisy_b, "lower", 0.05)[0] == "unresolved"
    # every run of B better than every run of A resolves it despite the spread
    assert verdict(noisy_a, [0.5, 0.6, 0.7, 0.55, 0.65], "lower", 0.05)[0] == "ok"
    # and every run worse, by more than the bound, is a regression
    assert verdict(noisy_a, [2.0, 2.4, 1.9, 2.2, 2.1], "lower", 0.05)[0] == "regressed"


def test_quartiles_of_one_sample_are_the_sample():
    assert clock.quartiles([3.5]) == (3.5, 3.5, 3.5)
    assert clock.quartiles([1.0, 2.0, 3.0, 4.0])[1] == 2.5


def test_speed_meter_divides_out_the_kernel_reading(monkeypatch):
    readings = iter([clock.REFERENCE_S * 2] * 3)
    monkeypatch.setattr(clock, "reference_kernel", lambda: next(readings))
    ticks = iter([0.0, 100.0, 100.0, 101.0, 200.0])
    monkeypatch.setattr(clock.time, "perf_counter", lambda: next(ticks))
    meter = clock.SpeedMeter()
    result, raw, calibrated = meter.timed(lambda: "done")
    assert (result, raw) == ("done", 1.0)
    # the host ran at half the reference speed, so the region counts half
    assert calibrated == 0.5
