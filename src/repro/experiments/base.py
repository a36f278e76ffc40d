"""Shared experiment result type and helpers.

:class:`ExperimentResult` is the unit of currency between the experiment
modules, the sweep runner (:mod:`repro.experiments.runner`), and the result
store (:mod:`repro.experiments.store`): every ``run()`` function returns
one, and :meth:`ExperimentResult.to_dict` / :meth:`ExperimentResult.from_dict`
round-trip it losslessly through JSON so replicates can be persisted and
re-aggregated long after the run.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from typing import Any, Mapping, Optional, Sequence

from repro.errors import ExperimentError
from repro.util.tables import render_table

#: statistic suffixes appended to every varying numeric column when
#: replicates are aggregated (see
#: :func:`repro.experiments.store.aggregate_results`)
DEFAULT_STAT_SUFFIXES = ("_mean", "_stdev", "_ci95")

#: the extended suffix set service-mode experiments opt into: cross-seed
#: percentiles of each per-window metric alongside the classic triple
PERCENTILE_STAT_SUFFIXES = ("_p50", "_p95", "_p99")


@dataclasses.dataclass
class ExperimentResult:
    """A regenerated figure/table: columns plus rows, ready to print."""

    experiment_id: str
    title: str
    columns: tuple[str, ...]
    rows: list[tuple]
    notes: str = ""
    scale: str = "default"
    #: sweep-dimension columns (family, node count, probability, ...) whose
    #: values identify a row rather than measure anything.  Aggregation
    #: passes these through and computes mean/stdev/ci95 for every other
    #: column, keeping the aggregate schema independent of the sampled data.
    key_columns: tuple[str, ...] = ()
    #: statistic columns the aggregation step derives for every varying
    #: numeric column.  The default triple suits one-shot success-rate
    #: tables; service-mode experiments extend it with cross-seed
    #: ``_p50/_p95/_p99`` percentiles (tail behavior is their measurand).
    stat_suffixes: tuple[str, ...] = DEFAULT_STAT_SUFFIXES
    #: per-cell telemetry snapshots attached by :meth:`ExperimentSpec.run
    #: <repro.experiments.spec.ExperimentSpec.run>` — run *metadata*,
    #: deliberately excluded from :meth:`to_dict` (artifact bytes stay
    #: telemetry-independent) and from equality (a reloaded artifact
    #: compares equal to the run that produced it)
    metrics: Optional[dict] = dataclasses.field(default=None, compare=False)

    def table(self) -> str:
        header = f"{self.experiment_id}: {self.title} [scale={self.scale}]"
        text = render_table(self.columns, self.rows, title=header)
        if self.notes:
            text += f"\nnotes: {self.notes}"
        return text

    def _column_index(self, name: str) -> int:
        """Index of a column, or an :class:`ExperimentError` naming the
        available columns (one-line-error convention: callers print it,
        they never see a bare ``ValueError`` traceback)."""
        try:
            return self.columns.index(name)
        except ValueError:
            raise ExperimentError(
                f"unknown column {name!r} in {self.experiment_id}; "
                f"available columns: {', '.join(self.columns)}"
            ) from None

    def column(self, name: str) -> list[Any]:
        """Extract one column by name."""
        index = self._column_index(name)
        return [row[index] for row in self.rows]

    def filtered(self, **criteria: Any) -> list[tuple]:
        """Rows matching all column=value criteria."""
        indices = {name: self._column_index(name) for name in criteria}
        return [
            row
            for row in self.rows
            if all(row[indices[name]] == value for name, value in criteria.items())
        ]

    def to_dict(self) -> dict[str, Any]:
        """JSON-serialisable payload; inverse of :meth:`from_dict`.

        Tuples become lists (JSON has no tuple type); ``from_dict`` restores
        them, so ``from_dict(to_dict(r)) == r`` for any result whose cells
        are JSON scalars (str/int/float/bool/None) — which all registered
        experiments produce.

        >>> r = ExperimentResult("fig0", "t", ("a", "b"), [(1, 2.5)])
        >>> ExperimentResult.from_dict(r.to_dict()) == r
        True
        """
        return {
            "experiment_id": self.experiment_id,
            "title": self.title,
            "columns": list(self.columns),
            "rows": [list(row) for row in self.rows],
            "notes": self.notes,
            "scale": self.scale,
            "key_columns": list(self.key_columns),
            "stat_suffixes": list(self.stat_suffixes),
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "ExperimentResult":
        """Rebuild a result from :meth:`to_dict` output (e.g. parsed JSON)."""
        try:
            return cls(
                experiment_id=payload["experiment_id"],
                title=payload["title"],
                columns=tuple(payload["columns"]),
                rows=[tuple(row) for row in payload["rows"]],
                notes=payload.get("notes", ""),
                scale=payload.get("scale", "default"),
                key_columns=tuple(payload.get("key_columns", ())),
                stat_suffixes=tuple(
                    payload.get("stat_suffixes", DEFAULT_STAT_SUFFIXES)
                ),
            )
        except (KeyError, TypeError) as exc:
            raise ExperimentError(f"malformed ExperimentResult payload: {exc!r}") from None


def mean(values: Sequence[float]) -> float:
    """Arithmetic mean (0.0 for empty input, to keep tables total)."""
    values = list(values)
    if not values:
        return 0.0
    return sum(values) / len(values)


def success_percent(flags: Sequence[bool]) -> float:
    """Success rate of ``flags`` in percent, to one decimal (0.0 for none)."""
    return round(100.0 * sum(flags) / len(flags), 1) if flags else 0.0


def stdev(values: Sequence[float]) -> float:
    """Sample standard deviation (0.0 for fewer than two values)."""
    values = list(values)
    if len(values) < 2:
        return 0.0
    center = mean(values)
    return math.sqrt(sum((v - center) ** 2 for v in values) / (len(values) - 1))


def _beta_fraction(a: float, b: float, x: float, y: float) -> float:
    """Regularized incomplete beta ``I_x(a, b)`` for ``x < (a + 1) / (a + b
    + 2)``, where its continued fraction converges fast (modified Lentz);
    ``y`` is ``1 - x``, passed in so that neither loses digits."""
    tiny = 1e-300
    c, d = 1.0, 1.0 - (a + b) * x / (a + 1.0)
    d = 1.0 / (d if abs(d) > tiny else tiny)
    value = d
    for m in range(1, 10_000):
        for numerator in (
            m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m)),
            -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1)),
        ):
            d = 1.0 + numerator * d
            d = 1.0 / (d if abs(d) > tiny else tiny)
            c = 1.0 + numerator / c
            c = c if abs(c) > tiny else tiny
            value *= c * d
        if abs(c * d - 1.0) < 1e-16:
            break
    log_front = (
        math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b) + a * math.log(x) + b * math.log(y)
    )
    return math.exp(log_front) * value / a


def _t_two_sided_tail(t: float, dof: int) -> float:
    """``P(|T| > t)`` for Student's t with ``dof`` degrees of freedom:
    ``I_x(dof / 2, 1 / 2)`` at ``x = dof / (dof + t²)``."""
    a, b = dof / 2.0, 0.5
    x, y = dof / (dof + t * t), t * t / (dof + t * t)
    if x < (a + 1.0) / (a + b + 2.0):
        return _beta_fraction(a, b, x, y)
    return 1.0 - _beta_fraction(b, a, y, x)


@functools.cache
def t_critical_95(dof: int) -> float:
    """Two-sided 95% Student-t critical value for ``dof >= 1`` degrees of
    freedom.

    The experiments run 5-10 seeds per cell, where the normal
    approximation's 1.96 understates the interval badly (t is 2.776 at 4
    degrees of freedom).  The quantile is found by bisecting the t tail
    down to adjacent floats, without scipy (its ``t.ppf`` is the oracle in
    the tests).  Cached per ``dof`` — aggregation calls this once per
    varying column per row.
    """
    lo, hi = 1.0, 16.0  # t(0.975) falls from 12.71 at dof 1 towards 1.96
    while True:
        mid = (lo + hi) / 2.0
        if mid in (lo, hi):
            return hi
        if _t_two_sided_tail(mid, dof) > 0.05:
            lo = mid
        else:
            hi = mid


def ci95(values: Sequence[float]) -> float:
    """Half-width of the Student-t 95% confidence interval.

    Uses the t critical value for ``n - 1`` degrees of freedom rather than
    the normal approximation's 1.96, which understates the interval at the
    5-10 seeds per cell the sweeps typically run.
    """
    values = list(values)
    if len(values) < 2:
        return 0.0
    return t_critical_95(len(values) - 1) * stdev(values) / math.sqrt(len(values))


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile with deterministic linear interpolation.

    Matches numpy's default ("linear") method: for ``n`` sorted samples the
    rank is ``q / 100 * (n - 1)``, interpolating between the neighbouring
    order statistics.  Pure-python and branch-free in the hot path, so the
    value is bit-identical across platforms and seeds — the windowed
    latency pipeline relies on that for byte-stable artifacts.  Empty input
    returns 0.0 (the module's "keep tables total" convention, like
    :func:`mean`); a window with no successful lookups reports zero latency
    alongside a zero success rate.
    """
    if not 0.0 <= q <= 100.0:
        raise ExperimentError(f"percentile q must be in [0, 100], got {q!r}")
    ordered = sorted(values)
    if not ordered:
        return 0.0
    if len(ordered) == 1:
        return float(ordered[0])
    rank = (q / 100.0) * (len(ordered) - 1)
    lo = math.floor(rank)
    hi = min(lo + 1, len(ordered) - 1)
    frac = rank - lo
    return float(ordered[lo] + (ordered[hi] - ordered[lo]) * frac)


def p50(values: Sequence[float]) -> float:
    """Median (see :func:`percentile`)."""
    return percentile(values, 50.0)


def p95(values: Sequence[float]) -> float:
    """95th percentile (see :func:`percentile`)."""
    return percentile(values, 95.0)


def p99(values: Sequence[float]) -> float:
    """99th percentile (see :func:`percentile`)."""
    return percentile(values, 99.0)
