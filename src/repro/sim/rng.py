"""Deterministic named random streams.

Every source of randomness in the library flows through :func:`derive_rng`,
which maps a root seed plus a tuple of string/int labels to an independent
``random.Random`` instance.  Two properties matter:

- *determinism*: the same ``(seed, labels)`` always yields the same stream,
  regardless of call order or what other streams were created;
- *independence*: distinct label tuples yield streams that do not overlap in
  practice (labels are hashed with BLAKE2b before seeding).

This is what makes experiment tables byte-for-byte reproducible.
"""

from __future__ import annotations

import hashlib
import random

from repro.errors import ConfigurationError


def validate_seed(seed: object) -> object:
    """Reject seeds whose ``repr`` silently forks random trajectories.

    Streams are derived from ``repr(seed)``, so ``0``, ``"0"``, ``0.0``, and
    ``True`` are four *different* seeds — a classic way to corrupt a
    replicate set.  Valid seeds are a real int (bools are rejected) or a
    composite tuple whose root (first element, recursively) is a real int;
    the remaining tuple elements are stream labels and may be anything.
    Returns the seed unchanged so call sites can validate inline.

    >>> validate_seed(7)
    7
    >>> validate_seed((0, "flap", "30:30", 0.5))[0]
    0
    """
    root = seed
    while isinstance(root, tuple):
        if not root:
            raise ConfigurationError("composite seed tuple must be non-empty")
        root = root[0]
    if isinstance(root, bool) or not isinstance(root, int):
        raise ConfigurationError(
            f"seed root must be an int, got {type(root).__name__} {root!r} "
            f"(streams hash repr(seed), so e.g. '0' and 0 would silently diverge)"
        )
    return seed


def derive_seed(seed: object, *labels: object) -> int:
    """Derive a 64-bit integer seed from a root seed and a label path.

    >>> derive_seed(0, "flap", 3) == derive_seed(0, "flap", 3)
    True
    >>> derive_seed(0, "flap", 3) != derive_seed(0, "flap", 4)
    True
    """
    digest = hashlib.blake2b(digest_size=8)
    digest.update(repr(seed).encode("utf-8"))
    for label in labels:
        digest.update(b"/")
        digest.update(repr(label).encode("utf-8"))
    return int.from_bytes(digest.digest(), "big")


def derive_rng(seed: object, *labels: object) -> random.Random:
    """Return a ``random.Random`` seeded from ``derive_seed(seed, *labels)``."""
    return random.Random(derive_seed(seed, *labels))


def derive_rng32(seed: object, *labels: object) -> random.Random:
    """:func:`derive_rng` seeded with the derived seed's low 32 bits: the
    overlay generators' streams, drawn as their graphs were first built."""
    return random.Random(derive_seed(seed, *labels) % (2**32))
