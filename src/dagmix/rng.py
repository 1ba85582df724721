"""Deterministic random-stream management.

All randomness in a run flows from one 64-bit master seed.  Each purpose
(initialization of component c, data generation, ...) gets its own named
stream derived from the seed and a scope path, so adding a component or
reordering operations never shifts the draws of unrelated streams.
"""

from __future__ import annotations

import hashlib

import numpy as np

from .errors import DimensionMismatch

_MASK64 = (1 << 64) - 1


def check_seed(seed: int) -> int:
    """The master seed, if it lies in [0, 2^64); outside that range it
    would share its streams with the seed it equals modulo 2^64."""
    if not 0 <= seed <= _MASK64:
        raise DimensionMismatch(f"seed {seed} lies outside [0, 2**64)")
    return seed


def _entropy_word(token: object) -> int:
    if isinstance(token, str):
        digest = hashlib.sha256(token.encode("utf-8")).digest()
        return int.from_bytes(digest[:8], "little")
    return int(token) & _MASK64


def stream(seed: int, *scope: object) -> np.random.Generator:
    """Return an independent generator for ``scope`` under ``seed``.

    Scope tokens may be strings (hashed stably) or integers (used as-is),
    e.g. ``stream(seed, "init-params", c)`` for component c's draws.
    """
    entropy = [_entropy_word(seed)] + [_entropy_word(t) for t in scope]
    return np.random.default_rng(np.random.SeedSequence(entropy))


def as_generator(seed_or_rng: int | np.random.Generator) -> np.random.Generator:
    """Accept either a caller-owned generator or a plain integer seed."""
    if isinstance(seed_or_rng, np.random.Generator):
        return seed_or_rng
    return np.random.default_rng(int(seed_or_rng))
