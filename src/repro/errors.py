"""Exception hierarchy for the MPIL reproduction library.

All library-specific errors derive from :class:`ReproError` so callers can
catch one base class.  Submodules raise the most specific subclass that
applies; nothing in the library raises bare ``Exception``.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` library."""


class ConfigurationError(ReproError):
    """An invalid parameter or combination of parameters was supplied."""


class IdSpaceError(ReproError):
    """An identifier operation was attempted with incompatible spaces or
    out-of-range values."""


class OverlayError(ReproError):
    """An overlay graph is malformed (self loops, asymmetry, bad indices)
    or a generator could not satisfy its constraints."""


class SimulationError(ReproError):
    """The discrete-event engine or a simulation driver reached an
    inconsistent state."""


class RoutingError(ReproError):
    """A routing operation failed in a way that indicates a bug rather
    than an expected protocol outcome (e.g. empty neighbor metric table)."""


class ExperimentError(ReproError):
    """An experiment was requested with an unknown id or invalid scale."""


class LedgerError(ExperimentError):
    """The sweep task ledger rejected a transition or a journal line, or a
    live sweep holds the store's ``sweep.lock``.  A subclass of
    :class:`ExperimentError` so CLI error handling stays one ``except``."""
