"""Seeded randomness.

Every stochastic routine in the package draws from a counter-based
Philox generator keyed by a single 64-bit seed, an argument that
defaults to 0 wherever it is optional; no environment variable is read.
Parallel or repeated draws use distinct stream indices, so results are
reproducible and independent of scheduling.
"""

from __future__ import annotations

import numpy as np

from .errors import PreconditionError


def require_seed(seed) -> None:
    """Raise PreconditionError unless seed lies in Philox's key range
    [0, 2**64)."""
    if not 0 <= seed < 2 ** 64:
        raise PreconditionError(f"seed {seed} is outside [0, 2**64)")


def generator(seed: int, stream: int = 0) -> np.random.Generator:
    """Philox generator for (seed, stream); same pair, same numbers."""
    require_seed(seed)
    bg = np.random.Philox(key=np.uint64(seed), counter=[0, 0, 0, np.uint64(stream)])
    return np.random.Generator(bg)
