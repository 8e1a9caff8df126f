"""Seeded randomness.

Every stochastic routine in the package draws from a counter-based
Philox generator keyed by a single 64-bit seed, an int argument that
defaults to 0 wherever it is optional; no environment variable is read.
Parallel or repeated draws use distinct stream indices, so results are
reproducible and independent of scheduling.
"""

from __future__ import annotations

import numbers

import numpy as np

from .errors import PreconditionError


def require_seed(seed) -> None:
    """Raise PreconditionError unless seed is an int, not a bool, in
    Philox's key range [0, 2**64); the one check of every seed."""
    if isinstance(seed, bool) or not isinstance(seed, numbers.Integral):
        raise PreconditionError(f"seed must be an int, not {seed!r}")
    if not 0 <= seed < 2 ** 64:
        raise PreconditionError(f"seed {seed} is outside [0, 2**64)")


def generator(seed: int, stream: int = 0) -> np.random.Generator:
    """Philox generator for (seed, stream); same pair, same numbers."""
    require_seed(seed)
    bg = np.random.Philox(key=np.uint64(seed), counter=[0, 0, 0, np.uint64(stream)])
    return np.random.Generator(bg)
