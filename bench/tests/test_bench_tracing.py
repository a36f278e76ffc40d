"""The tracer: self-time arithmetic, rebinding by identity, restoration,
and the ``layers_missing`` path."""

import sys

from bench import layers
from bench.tracing import BOUNDARIES, Boundary, Tracer, calibrate_wrapper_cost, resolve


class FakeClock:
    """A clock the traced functions advance themselves."""

    def __init__(self):
        self.now = 0

    def __call__(self):
        return self.now

    def spend(self, ns):
        self.now += ns


def test_self_time_is_duration_minus_what_nested_boundaries_cover():
    clock = FakeClock()
    tracer = Tracer(clock=clock)

    def leaf():
        clock.spend(5)

    hot_leaf = tracer.wrap(leaf, Boundary("t.leaf", "leaf-layer", hot=True))

    def middle():
        clock.spend(10)
        hot_leaf()
        hot_leaf()
        clock.spend(1)

    span_middle = tracer.wrap(middle, Boundary("t.middle", "middle-layer"))

    def top():
        clock.spend(100)
        span_middle()
        clock.spend(3)
        hot_leaf()

    tracer.wrap(top, Boundary("t.top", "top-layer"))()

    assert tracer.cells[("t.top", "")] == [1, 129, 103]
    assert tracer.cells[("t.middle", "top-layer")] == [1, 21, 11]
    assert tracer.cells[("t.leaf", "middle-layer")] == [2, 10, 10]
    assert tracer.cells[("t.leaf", "top-layer")] == [1, 5, 5]
    assert tracer.root_ns == 129
    # only span boundaries leave spans; a hot call links to the enclosing span
    assert [(s[0], s[1], s[2], s[5] - s[4]) for s in tracer.spans] == [
        (1, 0, "t.middle", 21),
        (0, -1, "t.top", 129),
    ]
    free = {True: (0.0, 0.0), False: (0.0, 0.0)}
    by_layer, wrapper_s = layers.self_seconds(tracer, free)
    assert by_layer == {"top-layer": 103e-9, "middle-layer": 11e-9, "leaf-layer": 15e-9}
    assert wrapper_s == 0.0
    # self times telescope to the root's duration
    assert abs(sum(by_layer.values()) - tracer.root_ns / 1e9) < 1e-15


def test_wrapper_cost_is_moved_out_of_the_layers():
    clock = FakeClock()
    tracer = Tracer(clock=clock)
    leaf = tracer.wrap(lambda: clock.spend(10), Boundary("t.leaf", "leaf-layer", hot=True))

    def top():
        clock.spend(50)
        leaf()

    tracer.wrap(top, Boundary("t.top", "top-layer"))()
    costs = {True: (2.0, 3.0), False: (4.0, 0.0)}
    by_layer, wrapper_s = layers.self_seconds(tracer, costs)
    # the leaf pays its inner cost, its caller the outer one, top its own inner
    assert by_layer["leaf-layer"] == (10 - 2) / 1e9
    assert by_layer["top-layer"] == (50 - 3 - 4) / 1e9
    assert wrapper_s == (2 + 3 + 4) / 1e9


def test_a_raising_boundary_still_closes_its_frame():
    tracer = Tracer(clock=FakeClock())

    def boom():
        raise ValueError("x")

    wrapped = tracer.wrap(boom, Boundary("t.boom", "layer"))
    try:
        wrapped()
    except ValueError:
        pass
    assert tracer.stack == []
    assert tracer.cells[("t.boom", "")][0] == 1


def test_install_rebinds_by_identity_and_uninstall_restores_every_original():
    import repro.api  # noqa: F401 - loads every module that copies a boundary
    import repro.core.network
    import repro.core.routing
    import repro.core.timed

    originals = {boundary.target: resolve(boundary.target) for boundary in BOUNDARIES}
    original_decide = repro.core.routing.decide_forwarding
    tracer = Tracer()
    tracer.install()
    try:
        assert tracer.missing == []
        patched = repro.core.routing.decide_forwarding
        assert patched is not original_decide
        # ``from repro.core.routing import decide_forwarding`` copies follow
        assert repro.core.network.decide_forwarding is patched
        assert repro.core.timed.decide_forwarding is patched
        for target, (owner, name, raw) in originals.items():
            assert vars(owner)[name] is not raw, target
    finally:
        tracer.uninstall()
    for target, (owner, name, raw) in originals.items():
        assert vars(owner)[name] is raw, target
    assert repro.core.network.decide_forwarding is original_decide
    assert repro.core.timed.decide_forwarding is original_decide
    leftovers = [
        (module.__name__, key)
        for module in list(sys.modules.values())
        if getattr(module, "__name__", "").startswith("repro")
        for key, value in vars(module).items()
        if getattr(value, "__wrapped__", None) is original_decide
    ]
    assert leftovers == []


def test_classmethod_boundaries_stay_classmethods():
    from repro.overlay import TransitStubUnderlay

    with Tracer() as tracer:
        underlay = TransitStubUnderlay.for_size(40, seed=1)
        assert isinstance(underlay, TransitStubUnderlay)
        assert any(name.endswith("for_size") for name, _parent in tracer.cells)
    assert isinstance(vars(TransitStubUnderlay)["for_size"], classmethod)


def test_scheduler_callbacks_are_charged_to_the_layer_that_defined_them():
    from repro.core import MPILConfig, TimedMPILNetwork
    from repro.overlay import fixed_degree_random_graph

    network = TimedMPILNetwork(
        fixed_degree_random_graph(60, degree=6, seed=3), config=MPILConfig(), seed=3
    )
    with Tracer() as tracer:
        network.lookup_at(0, network.random_object_id(__import__("random").Random(1)), 1.0)
    assert ("callback:core.timed", "sim.engine") in tracer.cells
    assert tracer.peak_pending >= 1


def test_an_unresolvable_boundary_marks_its_layer_missing_not_zero():
    table = (
        Boundary("repro.core.routing.decide_forwarding", "core.routing", hot=True),
        Boundary("repro.core.routing.no_such_function", "core.routing", hot=True),
        Boundary("repro.no_such_module.f", "sim.rng", hot=True),
    )
    tracer = Tracer()
    tracer.install(table)
    tracer.uninstall()
    assert tracer.missing_layers == ["core.routing", "sim.rng"]
    metrics = layers.derive(
        tracer,
        passes=1,
        traced_wall_s=1.0,
        untraced_wall_s=1.0,
        costs={True: (0.0, 0.0), False: (0.0, 0.0)},
        hot_spans=[],
        cold_spans=[],
        events_per_pass=0,
        detail={},
        probes={},
    )
    assert metrics["core.routing.decide_calls"] is None
    assert metrics["core.routing.self_s"] is None
    assert metrics["sim.rng.derive_calls"] is None
    assert metrics["core.network.self_s"] == 0.0


def test_calibration_reports_a_positive_cost_for_both_flavours():
    costs = calibrate_wrapper_cost(calls=2000)
    assert set(costs) == {True, False}
    assert all(inner > 0 and outer >= 0 for inner, outer in costs.values())
