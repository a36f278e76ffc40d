"""Decorator-based experiment registry.

Experiment modules register themselves with the :func:`experiment`
decorator instead of being enumerated in a hand-maintained dict::

    @experiment(id="fig9", title="...", tags=("figure", "static"), figure="Figure 9")
    def fig9() -> Pipeline:
        return Pipeline(columns=..., key_columns=..., cells=..., measure=...)

    fig9.run(scale="smoke")  # the decorated name is the registered ExperimentSpec

The decorator builds an :class:`~repro.experiments.spec.ExperimentSpec`
from the metadata plus the factory's :class:`~repro.experiments.spec.Pipeline`,
registers it (rejecting duplicate ids), and returns it — so the module
keeps a handle for direct use while the registry serves lookups by id.

The built-in experiment modules are imported lazily on the first registry
query, in the catalogue order figures/tables -> ablations -> baselines ->
extensions; anything else (e.g. a spec composed from TOML via
:mod:`repro.experiments.compose`) can be added at runtime with
:func:`register` and removed with :func:`unregister`.
"""

from __future__ import annotations

import importlib
from typing import Callable, Iterable, Optional, Union

from repro.errors import ExperimentError
from repro.experiments.base import ExperimentResult
from repro.experiments.scales import Scale
from repro.experiments.spec import ExperimentSpec, Pipeline

_REGISTRY: dict[str, ExperimentSpec] = {}

#: built-in experiment modules, in catalogue order; importing one runs its
#: ``@experiment`` decorators, which is what populates the registry
_EXPERIMENT_MODULES: tuple[str, ...] = (
    "repro.experiments.paper",
    "repro.experiments.ablations",
    "repro.experiments.baseline_comparison",
    "repro.experiments.ext_scenarios",
    "repro.experiments.svc_service",
)

_loaded = False
_loading = False

#: presentation order per id: (module rank, registration sequence).  Ids from
#: built-in modules rank by catalogue position regardless of which module
#: happened to be imported first (a test importing ``ext_scenarios`` directly
#: must not reshuffle ``list``); runtime registrations sort after them.
_ORDER: dict[str, tuple[int, int]] = {}
_RUNTIME_RANK = len(_EXPERIMENT_MODULES)
_sequence = 0


def _ensure_loaded() -> None:
    global _loaded, _loading
    if _loaded or _loading:
        return
    # The in-progress flag guards reentrancy (register() is called from the
    # imports below); _loaded is only set on success, so a failed import —
    # however it was swallowed — makes the next query retry rather than
    # silently serving a half-populated catalogue.
    _loading = True
    try:
        for module in _EXPERIMENT_MODULES:
            importlib.import_module(module)
        _loaded = True
    finally:
        _loading = False


def _ordered_ids() -> list[str]:
    return sorted(_REGISTRY, key=lambda experiment_id: _ORDER[experiment_id])


def register(spec: ExperimentSpec, _module: Optional[str] = None) -> ExperimentSpec:
    """Add a spec to the registry, rejecting duplicate ids."""
    global _sequence
    # Load the built-ins first (no-op while they are loading: _loaded is
    # already set) so a runtime registration cannot silently shadow e.g.
    # "fig9" in a process that never queried the registry.
    _ensure_loaded()
    if spec.experiment_id in _REGISTRY:
        raise ExperimentError(
            f"experiment id {spec.experiment_id!r} is already registered "
            f"({_REGISTRY[spec.experiment_id].title!r}); ids must be unique"
        )
    rank = (
        _EXPERIMENT_MODULES.index(_module)
        if _module in _EXPERIMENT_MODULES
        else _RUNTIME_RANK
    )
    _sequence += 1
    _ORDER[spec.experiment_id] = (rank, _sequence)
    _REGISTRY[spec.experiment_id] = spec
    return spec


def unregister(experiment_id: str) -> None:
    """Remove a runtime-registered spec (composed specs, tests).

    Built-in experiments cannot be removed: their modules are imported at
    most once per process, so nothing could ever re-register them.
    """
    _ensure_loaded()
    if experiment_id not in _REGISTRY:
        raise ExperimentError(f"experiment {experiment_id!r} is not registered")
    if _ORDER[experiment_id][0] < _RUNTIME_RANK:
        raise ExperimentError(
            f"experiment {experiment_id!r} is built in and cannot be unregistered"
        )
    del _REGISTRY[experiment_id]
    del _ORDER[experiment_id]


def experiment(
    *,
    id: str,
    title: str,
    tags: Iterable[str] = (),
    figure: Optional[str] = None,
    scenario_family: Optional[str] = None,
) -> Callable[[Callable[[], Pipeline]], ExperimentSpec]:
    """Register the decorated pipeline factory as an experiment.

    The factory takes no arguments and returns the spec's
    :class:`~repro.experiments.spec.Pipeline`; it is invoked once, at
    decoration time, and the decorated name is rebound to the registered
    :class:`~repro.experiments.spec.ExperimentSpec`.
    """

    def decorate(factory: Callable[[], Pipeline]) -> ExperimentSpec:
        return register(
            ExperimentSpec(
                experiment_id=id,
                title=title,
                pipeline=factory(),
                tags=tuple(tags),
                figure=figure,
                scenario_family=scenario_family,
            ),
            _module=factory.__module__,
        )

    return decorate


def list_experiments(tags: Iterable[str] = ()) -> list[ExperimentSpec]:
    """Registered specs in catalogue order, optionally filtered by tags."""
    _ensure_loaded()
    wanted = tuple(tags)
    return [
        spec
        for spec in (_REGISTRY[experiment_id] for experiment_id in _ordered_ids())
        if not wanted or spec.matches_tags(wanted)
    ]


def all_experiment_ids() -> list[str]:
    """Registered experiment ids, figures/tables first."""
    _ensure_loaded()
    return _ordered_ids()


def get_spec(experiment: Union[str, ExperimentSpec]) -> ExperimentSpec:
    """The registered spec for an experiment id; a spec (composed specs need
    not be registered) passes through, so callers resolve either one way."""
    if isinstance(experiment, ExperimentSpec):
        return experiment
    _ensure_loaded()
    try:
        return _REGISTRY[experiment]
    except KeyError:
        raise ExperimentError(
            f"unknown experiment {experiment!r}; choose from {all_experiment_ids()}"
        ) from None


def run_experiment(
    experiment: Union[str, ExperimentSpec],
    scale: Union[str, Scale] = "default",
    seed: int = 0,
    telemetry=None,
) -> ExperimentResult:
    """Run one experiment — a registered id, or a spec (composed, unregistered).

    Seed validation (ints only; bools rejected) happens in
    :meth:`ExperimentSpec.run <repro.experiments.spec.ExperimentSpec.run>`,
    the experiment layer's single choke point.  ``telemetry`` (a
    :class:`repro.telemetry.Telemetry`) is passed through to it; ``None``
    runs with spans off.
    """
    return get_spec(experiment).run(scale=scale, seed=seed, telemetry=telemetry)
