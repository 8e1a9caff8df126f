"""Named algebra corpus used by the test suite, demos, and the CLI.

Every entry is constructed with exact rational constants and validated
(Jacobi identity, recorded nilpotency step) on its first build.
`corpus(name, param)` then returns that same entry to every later call
in the process; its bracket's constants are read-only, so the shared
entry cannot be changed by one caller under another.
"""

from __future__ import annotations

import functools
import numbers
from dataclasses import dataclass
from fractions import Fraction

from .brackets import Bracket, nilpotency_step, validate_jacobi
from .errors import PreconditionError


@dataclass(frozen=True)
class CorpusEntry:
    name: str
    params: tuple
    bracket: Bracket
    note: str
    step: int | None  # nilpotency step, None for non-nilpotent entries

    @property
    def dim(self) -> int:
        return self.bracket.dim


def _entry(name, params, constants, dim, note, step):
    b = Bracket(dim, {k: Fraction(v) for k, v in constants.items()})
    if validate_jacobi(b) != 0:
        raise AssertionError(f"corpus entry {name} violates the Jacobi identity")
    actual = nilpotency_step(b)
    if actual != step:
        raise AssertionError(
            f"corpus entry {name}: nilpotency step {actual}, recorded {step}")
    return CorpusEntry(name, params, b, note, step)


def abelian(n: int) -> CorpusEntry:
    if n < 1:
        raise PreconditionError("abelian algebra needs dimension >= 1")
    return _entry("abelian", (n,), {}, n, f"abelian R^{n}", 1)


def heisenberg(m: int) -> CorpusEntry:
    """Heisenberg algebra of odd dimension m = 2n+1, pairs (e_{2i-1}, e_{2i})
    bracketing to the central e_m."""
    if m < 3 or m % 2 == 0:
        raise PreconditionError("heisenberg dimension must be odd and >= 3")
    n = (m - 1) // 2
    constants = {(2 * i, 2 * i + 1, m - 1): 1 for i in range(n)}
    return _entry("heisenberg", (m,), constants, m,
                  f"Heisenberg algebra h_{m}, {n} generator pairs", 2)


def filiform(n: int) -> CorpusEntry:
    """Filiform algebra with [e1, e_i] = e_{i+1} for 2 <= i <= n-1."""
    if n < 3:
        raise PreconditionError("filiform needs dimension >= 3")
    constants = {(0, i, i + 1): 1 for i in range(1, n - 1)}
    return _entry("filiform", (n,), constants, n,
                  f"filiform algebra of maximal step in dimension {n}", n - 1)


def tricky5() -> CorpusEntry:
    """5-dimensional 3-step algebra whose standard basis is not nice:
    [e1,e2] = e3+e4, [e1,e3] = e5, [e1,e4] = e5."""
    constants = {(0, 1, 2): 1, (0, 1, 3): 1, (0, 2, 4): 1, (0, 3, 4): 1}
    return _entry("tricky5", (), constants, 5,
                  "5-dim 3-step algebra with a non-nice standard basis", 3)


def milnor_heis() -> CorpusEntry:
    """3-dimensional Heisenberg bracket, the nilpotent entry of the
    3-dimensional unimodular degeneration frame."""
    return _entry("milnor_heis", (), {(0, 1, 2): 1}, 3,
                  "3-dim Heisenberg algebra as a degeneration target", 2)


def milnor_hyp(n: int) -> CorpusEntry:
    """Solvable algebra with [e_n, e_i] = e_i for i < n; with the standard
    inner product this is the constant-curvature -1 hyperbolic frame."""
    if n < 2:
        raise PreconditionError("milnor_hyp needs dimension >= 2")
    constants = {(i, n - 1, i): -1 for i in range(n - 1)}
    return _entry("milnor_hyp", (n,), constants, n,
                  f"solvable frame of real hyperbolic {n}-space", None)


def euclid3() -> CorpusEntry:
    """Euclidean motion algebra e(2): [e1,e2] = e3, [e1,e3] = -e2.
    Flat and unimodular; degenerates to the Heisenberg bracket along
    diagonal curves."""
    return _entry("euclid3", (), {(0, 1, 2): 1, (0, 2, 1): -1}, 3,
                  "Euclidean motion algebra of the plane (flat, solvable)", None)


_GENERATORS = {
    "abelian": abelian,
    "heisenberg": heisenberg,
    "filiform": filiform,
    "tricky5": tricky5,
    "milnor_heis": milnor_heis,
    "milnor_hyp": milnor_hyp,
    "euclid3": euclid3,
}

_NEEDS_PARAM = {"abelian", "heisenberg", "filiform", "milnor_hyp"}


def corpus_names():
    return sorted(_GENERATORS)


def corpus(name: str, param: int | None = None) -> CorpusEntry:
    """Look up a corpus entry by name, with an integral parameter (never
    a bool) for the families abelian, heisenberg, filiform, milnor_hyp."""
    if name not in _GENERATORS:
        raise PreconditionError(
            f"unknown corpus algebra {name!r}; available: {', '.join(corpus_names())}")
    if name in _NEEDS_PARAM:
        if param is None:
            raise PreconditionError(f"corpus algebra {name!r} needs a dimension parameter")
        integral = isinstance(param, numbers.Integral) or (
            isinstance(param, numbers.Real) and float(param).is_integer())
        if isinstance(param, bool) or not integral:
            raise PreconditionError(
                f"corpus algebra {name!r} needs an integer parameter, got {param!r}")
        return _built(name, int(param))
    if param is not None:
        raise PreconditionError(f"corpus algebra {name!r} takes no parameter")
    return _built(name, None)


@functools.lru_cache(maxsize=64)
def _built(name, param):
    """The validated entry for a checked (name, param); a generator that
    raises caches nothing, so a bad dimension raises on every call."""
    gen = _GENERATORS[name]
    return gen() if param is None else gen(param)
