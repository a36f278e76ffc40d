"""Named perturbation scenarios: the paper's sweeps plus the catalogue.

Two things live here:

- :class:`PerturbationScenario` and :func:`scenarios_for` — the paper's
  Figure 1/11 flapping sweeps (probability 0.1..1.0 for four idle:offline
  configurations in Figure 1: 1:1, 45:15, 30:30, 300:300; three in
  Figures 11–12: 1:1, 30:30, 300:300);
- the **scenario-family table** :data:`SCENARIO_FAMILIES` — one entry per
  availability-process family the engine implements, and the only place a
  family is described: its name and summary (what ``mpil-experiments
  scenarios`` prints), its parameter schema and config constructor (what
  :mod:`repro.experiments.compose` validates a ``[[scenario]]`` table
  against), and its process class (what
  :meth:`repro.experiments.perturbed.PerturbationTestbed.process` lays
  over the testbed).

Which *experiments* sweep a family is not recorded here: experiment specs
declare their ``scenario_family`` in the registry
(:mod:`repro.experiments.registry`), and ``mpil-experiments scenarios``
joins the two — so registering a new sweep automatically updates the
catalogue listing.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Callable, Mapping

from repro.errors import ConfigurationError
from repro.perturbation.adversarial import AdversarialRemoval, AdversarialRemovalConfig
from repro.perturbation.churn import ChurnConfig, ChurnSchedule
from repro.perturbation.flapping import FlappingConfig, FlappingSchedule
from repro.perturbation.outage import RegionalOutage, RegionalOutageConfig
from repro.perturbation.storms import JoinStormConfig, JoinStormSchedule
from repro.perturbation.waves import ChurnWaveConfig, ChurnWaveSchedule

#: The idle:offline configurations used in the paper, by figure.
PERIOD_CONFIGS: dict[str, tuple[str, ...]] = {
    "fig1": ("1:1", "45:15", "30:30", "300:300"),
    "fig11": ("1:1", "30:30", "300:300"),
}

#: The paper's flapping-probability sweep.
FLAP_PROBABILITIES: tuple[float, ...] = tuple(round(0.1 * i, 1) for i in range(1, 11))


@dataclasses.dataclass(frozen=True)
class PerturbationScenario:
    """One cell of a perturbation sweep: a period label plus a probability."""

    period_label: str
    probability: float


def scenarios_for(figure: str, probabilities=FLAP_PROBABILITIES):
    """All (period, probability) scenarios for a figure's sweep."""
    if figure not in PERIOD_CONFIGS:
        raise ConfigurationError(
            f"unknown figure {figure!r}; choose from {sorted(PERIOD_CONFIGS)}"
        )
    return [
        PerturbationScenario(period_label=label, probability=p)
        for label in PERIOD_CONFIGS[figure]
        for p in probabilities
    ]


# -- the scenario-family catalogue ------------------------------------------


@dataclasses.dataclass(frozen=True)
class ScenarioFamily:
    """One availability-process family the scenario engine implements.

    ``schema`` maps each parameter name to the type a spec file's value is
    coerced to (``float`` or ``str``); every parameter is required unless
    listed in ``optional``.  ``config`` takes the coerced parameters as
    keywords and returns the family's validated config object (raising
    :class:`~repro.errors.ConfigurationError` on a bad range), which
    ``process_class`` — an interval-reporting
    :class:`~repro.perturbation.base.AvailabilityProcess` — is built from.
    """

    name: str
    summary: str
    schema: Mapping[str, type]
    config: Callable[..., Any]
    process_class: type
    optional: frozenset[str] = frozenset()

    @property
    def process(self) -> str:
        """The implementing class, dotted from the package root."""
        return f"{self.process_class.__module__}.{self.process_class.__qualname__}"


#: Every scenario family, in catalogue order: what ``scenarios`` prints,
#: what ``compose`` validates a ``[[scenario]]`` table against, and what
#: :meth:`repro.experiments.perturbed.PerturbationTestbed.process` builds.
#: Families compose freely via
#: :class:`~repro.perturbation.timeline.ScenarioTimeline`.
SCENARIO_FAMILIES: dict[str, ScenarioFamily] = {
    family.name: family
    for family in (
        ScenarioFamily(
            name="flapping",
            summary="the paper's synchronized idle/offline cycles (figs 1, 11, 12)",
            schema={"period": str, "probability": float},
            config=lambda period, probability: FlappingConfig.from_label(
                period, probability
            ),
            process_class=FlappingSchedule,
        ),
        ScenarioFamily(
            name="churn",
            summary="exponential on/off renewal sessions (Overnet/Napster-style)",
            schema={"mean_session": float, "mean_downtime": float},
            config=ChurnConfig,
            process_class=ChurnSchedule,
        ),
        ScenarioFamily(
            name="regional-outage",
            summary="correlated outage of whole transit-stub domains",
            schema={"start": float, "duration": float, "severity": float},
            config=RegionalOutageConfig,
            process_class=RegionalOutage,
        ),
        ScenarioFamily(
            name="churn-wave",
            summary="churn with periodically surging join/leave rates",
            schema={
                "mean_session": float,
                "mean_downtime": float,
                "wave_period": float,
                "wave_duration": float,
                "intensity": float,
            },
            config=ChurnWaveConfig,
            process_class=ChurnWaveSchedule,
        ),
        ScenarioFamily(
            name="join-storm",
            summary="mass simultaneous arrivals rejoining through a perturbed net",
            schema={"arrival_time": float, "late_fraction": float},
            config=JoinStormConfig,
            process_class=JoinStormSchedule,
        ),
        ScenarioFamily(
            name="adversarial-removal",
            summary="permanent deletion of the highest-degree overlay nodes",
            schema={"fraction": float, "start": float, "targeting": str},
            config=AdversarialRemovalConfig,
            process_class=AdversarialRemoval,
            optional=frozenset({"targeting"}),
        ),
    )
}


def scenario_families() -> list[ScenarioFamily]:
    """The catalogue, in declaration order."""
    return list(SCENARIO_FAMILIES.values())


def get_family(name: str) -> ScenarioFamily:
    """Look up one scenario family by name."""
    try:
        return SCENARIO_FAMILIES[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown scenario family {name!r}; choose from {sorted(SCENARIO_FAMILIES)}"
        ) from None
