"""Seeded randomness.

Every stochastic routine in the package draws from a counter-based
Philox generator keyed by a single 64-bit seed.  Parallel or repeated
draws use distinct stream indices, so results are reproducible and
independent of scheduling.
"""

from __future__ import annotations

import os

import numpy as np

from .errors import PreconditionError

SEED_ENV = "RNL_SEED"


def default_seed() -> int:
    raw = os.environ.get(SEED_ENV, "")
    try:
        return int(raw) & 0xFFFFFFFFFFFFFFFF
    except ValueError:
        return 0


def require_seed(seed) -> None:
    """Raise PreconditionError unless seed lies in Philox's key range
    [0, 2**64)."""
    if not 0 <= seed < 2 ** 64:
        raise PreconditionError(f"seed {seed} is outside [0, 2**64)")


def generator(seed=None, stream: int = 0) -> np.random.Generator:
    """Philox generator for (seed, stream); same pair, same numbers."""
    if seed is None:
        seed = default_seed()
    require_seed(seed)
    bg = np.random.Philox(key=np.uint64(seed), counter=[0, 0, 0, np.uint64(stream)])
    return np.random.Generator(bg)
