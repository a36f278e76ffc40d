"""Experiment scale presets, the scale-rung registry, and run budgets.

``paper`` runs the published parameters (4000–16000-node static overlays,
10 graphs per setting, 100 insert/lookup pairs each; 1000-node Pastry with
1000 inserts + 1000 lookups).  ``default`` keeps every sweep dimension but
shrinks sizes so the full benchmark suite finishes in minutes on a laptop;
``smoke`` is for tests.  Above the paper sits the scale-ladder rung
``large`` (10^5-node static overlays).  It carries an explicit
:class:`BudgetSpec`; exceeding it aborts the run with a one-line
:class:`~repro.errors.ExperimentError` (see :mod:`repro.experiments.budget`).
Anything bigger is registered from ``get_scale("large").evolve(...)``.
Every result records the scale that produced it (``ExperimentResult.scale``).

A :class:`Scale` is one frozen dataclass of flat fields
(``scale.pastry_nodes``, ``scale.static_ops``, …) — the names every
experiment module reads and a ``[scale]`` table writes — plus ``name`` and
one nested :class:`BudgetSpec`, which owns the ceilings' validation.

Custom rungs register through :func:`register_scale` (or
:func:`repro.api.register_scale`, or a ``[scale]`` table in a composed
spec); :func:`get_scale` resolves built-ins and registered rungs alike and
lists every known rung in its one-line error for unknown names.
"""

from __future__ import annotations

import dataclasses
import math

from repro.errors import ExperimentError


@dataclasses.dataclass(frozen=True)
class BudgetSpec:
    """Resource ceilings enforced while a run executes.

    ``None`` means unlimited (the historical behaviour; ``smoke`` through
    ``paper`` carry no budget).  The scale-ladder rungs set both so a
    regression that blows the envelope fails fast instead of thrashing the
    machine.
    """

    max_rss_mb: float | None = None  #: peak resident set, mebibytes
    max_wall_s: float | None = None  #: wall clock per experiment run, seconds

    def __post_init__(self) -> None:
        for field in ("max_rss_mb", "max_wall_s"):
            value = getattr(self, field)
            if value is None:
                continue
            # a nan or inf ceiling would never be enforced: ``rss > nan``
            # and ``rss > inf`` are both false
            if (
                isinstance(value, bool)
                or not isinstance(value, (int, float))
                or not 0 < value < math.inf
            ):
                raise ExperimentError(
                    f"budget {field} must be a positive finite number or None, "
                    f"got {value!r}"
                )

    @property
    def unlimited(self) -> bool:
        return self.max_rss_mb is None and self.max_wall_s is None


def _is_count(value: object) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_finite(value: object) -> bool:
    return (
        isinstance(value, (int, float))
        and not isinstance(value, bool)
        and math.isfinite(value)
    )


#: a flat ``Scale`` field's annotation -> (test of one value, its name)
_FIELD_TYPES = {
    "int": (_is_count, "an integer"),
    "float": (_is_finite, "a finite number"),
    "tuple[int, ...]": (_is_count, "a list of integers"),
    "tuple[float, ...]": (_is_finite, "a list of finite numbers"),
}


@dataclasses.dataclass(frozen=True)
class Scale:
    """All size knobs used by the experiment modules, one flat field each.

    The scenario-engine sweeps and the service-traffic knobs are defaulted
    so a custom rung only has to spell the sizes it cares about::

        Scale(name="mine", static_node_counts=(500,), static_graphs=1, ...)
    """

    name: str
    # static-overlay experiments (fig9, fig10, tab1-3)
    static_node_counts: tuple[int, ...]
    static_graphs: int  #: independent overlay samples per (family, n) setting
    static_ops: int  #: insert/lookup pairs per graph
    # closed-form / Monte-Carlo analysis (fig7, fig8)
    analysis_node_counts: tuple[int, ...]
    analysis_degrees: tuple[int, ...]
    complete_node_counts: tuple[int, ...]
    # perturbation experiments (fig1, fig11, fig12, ext-*)
    pastry_nodes: int
    perturbed_inserts: int
    perturbed_lookups: int
    flap_probabilities: tuple[float, ...]
    outage_severities: tuple[float, ...] = (0.0, 0.25, 0.5, 0.75, 1.0)
    wave_intensities: tuple[float, ...] = (1.0, 2.0, 4.0, 8.0)
    storm_fractions: tuple[float, ...] = (0.2, 0.4, 0.6, 0.8)
    removal_fractions: tuple[float, ...] = (0.0, 0.1, 0.2, 0.3, 0.4)
    # sustained-traffic service mode (svc-steady, svc-outage)
    service_duration: float = 600.0  #: simulated seconds of traffic
    service_rate: float = 1.0  #: baseline arrivals per simulated second
    service_window: float = 60.0  #: latency-percentile window length
    service_loads: tuple[float, ...] = (0.5, 1.0, 2.0)  #: rate multipliers
    budget: BudgetSpec = BudgetSpec()

    def __post_init__(self) -> None:
        """Each flat field holds its annotated type: a count is an ``int``
        (``bool`` is not a count), a float field a finite real number, a
        tuple field a tuple of those.  A ``[scale]`` table or
        ``register_scale`` caller that spells one wrongly gets one error
        naming the field, not a traceback from deep inside a run.  Ranges
        are checked where they matter (``static_sizes``, ``BudgetSpec``,
        ``ServiceConfig``)."""
        for field in dataclasses.fields(self):
            if field.type not in _FIELD_TYPES:
                continue
            holds, kind = _FIELD_TYPES[field.type]
            value = getattr(self, field.name)
            if field.type.startswith("tuple"):
                valid = isinstance(value, tuple) and all(map(holds, value))
            else:
                valid = holds(value)
            if not valid:
                raise ExperimentError(
                    f"scale field {field.name} must be {kind}, got {value!r}"
                )

    def evolve(self, **changes) -> "Scale":
        """A copy with the named fields replaced.

        ``max_rss_mb=`` / ``max_wall_s=`` are shorthand for replacing that
        one ceiling inside ``budget``.  Unknown fields raise a one-line
        :class:`~repro.errors.ExperimentError` listing the valid ones.
        """
        ceiling_names = [field.name for field in dataclasses.fields(BudgetSpec)]
        ceilings = {key: changes.pop(key) for key in ceiling_names if key in changes}
        if ceilings:
            changes["budget"] = dataclasses.replace(
                changes.get("budget", self.budget), **ceilings
            )
        fields = [field.name for field in dataclasses.fields(self)]
        for key in changes:
            if key not in fields:
                raise ExperimentError(
                    f"unknown scale field {key!r}; choose from "
                    f"{sorted(fields + ceiling_names)}"
                )
        return dataclasses.replace(self, **changes)


_FULL_PROBS = tuple(round(0.1 * i, 1) for i in range(1, 11))

SCALES: dict[str, Scale] = {
    "smoke": Scale(
        name="smoke",
        static_node_counts=(200,),
        static_graphs=1,
        static_ops=10,
        analysis_node_counts=(4000,),
        analysis_degrees=(10, 40, 100),
        complete_node_counts=(2000, 8000),
        pastry_nodes=80,
        perturbed_inserts=25,
        perturbed_lookups=25,
        flap_probabilities=(0.2, 0.6, 1.0),
        outage_severities=(0.0, 0.5, 1.0),
        wave_intensities=(1.0, 4.0),
        storm_fractions=(0.3, 0.6),
        removal_fractions=(0.0, 0.2, 0.4),
        service_duration=240.0,
        service_rate=0.5,
        service_window=60.0,
        service_loads=(1.0, 2.0),
    ),
    "default": Scale(
        name="default",
        static_node_counts=(1000, 2000, 4000),
        static_graphs=2,
        static_ops=30,
        analysis_node_counts=(4000, 8000, 16000),
        analysis_degrees=tuple(range(10, 101, 10)),
        complete_node_counts=(2000, 4000, 6000, 8000, 10000, 12000, 14000, 16000),
        pastry_nodes=400,
        perturbed_inserts=120,
        perturbed_lookups=120,
        flap_probabilities=_FULL_PROBS,
        service_duration=1200.0,
        service_rate=2.0,
        service_window=120.0,
    ),
    "paper": Scale(
        name="paper",
        static_node_counts=(4000, 8000, 16000),
        static_graphs=10,
        static_ops=100,
        analysis_node_counts=(4000, 8000, 16000),
        analysis_degrees=tuple(range(10, 101, 10)),
        complete_node_counts=(2000, 4000, 6000, 8000, 10000, 12000, 14000, 16000),
        pastry_nodes=1000,
        perturbed_inserts=1000,
        perturbed_lookups=1000,
        flap_probabilities=_FULL_PROBS,
        outage_severities=tuple(round(0.1 * i, 1) for i in range(0, 11)),
        wave_intensities=(1.0, 2.0, 4.0, 8.0, 16.0),
        storm_fractions=(0.1, 0.2, 0.4, 0.6, 0.8),
        removal_fractions=tuple(round(0.05 * i, 2) for i in range(0, 10)),
        service_duration=3600.0,
        service_rate=5.0,
        service_window=300.0,
        service_loads=(0.5, 1.0, 2.0, 4.0),
    ),
    # -- the scale ladder (10^5 nodes on one machine), with an enforced
    #    budget; generation is linear in edges, its pairing rounds judged
    #    in numpy (fixed_degree_random_graph(20_000, 100, seed=0): 1.3-1.8 s
    #    and 90 MiB peak RSS, whole process, on a 2-core x86-64 box running
    #    CPython 3.11 and numpy 2.4), everything after it runs on the
    #    struct-of-arrays core.
    "large": Scale(
        name="large",
        static_node_counts=(100_000,),
        static_graphs=1,
        static_ops=100,
        analysis_node_counts=(100_000,),
        analysis_degrees=(10, 40, 100),
        complete_node_counts=(20_000, 50_000, 100_000),
        pastry_nodes=5000,
        perturbed_inserts=300,
        perturbed_lookups=300,
        flap_probabilities=(0.2, 0.6, 1.0),
        service_duration=1200.0,
        service_rate=2.0,
        service_window=120.0,
        service_loads=(1.0, 2.0),
        budget=BudgetSpec(max_rss_mb=16384.0, max_wall_s=1800.0),
    ),
}

#: runtime-registered rungs (``register_scale``); resolved after built-ins
_REGISTERED: dict[str, Scale] = {}


def available_scales() -> tuple[str, ...]:
    """Names of every known rung — built-in and registered — sorted."""
    return tuple(sorted({**SCALES, **_REGISTERED}))


def all_scales() -> tuple[Scale, ...]:
    """Every known rung, sorted by name (the ``api.scales()`` view)."""
    merged = {**SCALES, **_REGISTERED}
    return tuple(merged[name] for name in sorted(merged))


def register_scale(scale: Scale, replace: bool = False) -> Scale:
    """Register a custom rung so name-based lookups (CLI ``--scale``,
    :func:`get_scale`, ``api.run(scale="name")``) resolve it.

    Built-in names are immutable; re-registering a custom name requires
    ``replace=True``.  Returns the scale for chaining.
    """
    if not isinstance(scale, Scale):
        raise ExperimentError(
            f"register_scale needs a Scale, got {type(scale).__name__}"
        )
    if scale.name in SCALES:
        raise ExperimentError(
            f"cannot register scale {scale.name!r}: built-in rungs are immutable"
        )
    if scale.name in _REGISTERED and not replace:
        raise ExperimentError(
            f"scale {scale.name!r} is already registered; pass replace=True to overwrite"
        )
    _REGISTERED[scale.name] = scale
    return scale


def unregister_scale(name: str) -> None:
    """Remove a runtime-registered rung (built-ins cannot be removed)."""
    if name in SCALES:
        raise ExperimentError(f"cannot unregister built-in scale {name!r}")
    if name not in _REGISTERED:
        raise ExperimentError(f"scale {name!r} is not registered")
    del _REGISTERED[name]


def get_scale(scale: str | Scale) -> Scale:
    """Resolve a scale by name (or pass a custom :class:`Scale` through)."""
    if isinstance(scale, Scale):
        return scale
    found = SCALES.get(scale)
    if found is None:
        found = _REGISTERED.get(scale)
    if found is None:
        raise ExperimentError(
            f"unknown scale {scale!r}; choose from {list(available_scales())}"
        )
    return found
