"""Deterministic random-number streams derived from an experiment seed.

The latency model draws from a stream derived by name from the
experiment's seed, so any run can be replayed exactly, and the draw
sequence of one named component stays independent of how often another
one draws.
"""

from __future__ import annotations

import hashlib
import random


def derive_seed(root_seed: int, *names: object) -> int:
    """Derive a child seed from ``root_seed`` and a path of names.

    Uses SHA-256 so that distinct paths yield independent-looking streams and
    the derivation is stable across Python versions and platforms (unlike
    ``hash()``).
    """
    h = hashlib.sha256()
    h.update(str(root_seed).encode())
    for name in names:
        h.update(b"/")
        h.update(str(name).encode())
    return int.from_bytes(h.digest()[:8], "big")


def stream(root_seed: int, *names: object) -> random.Random:
    """Return a ``random.Random`` seeded for the component path ``names``."""
    return random.Random(derive_seed(root_seed, *names))
