"""Bracket degenerations along diagonal power curves and curvature transfer.

A degeneration curve h_t = diag(t^w_1, ..., t^w_n) acts on a fixed
source bracket, rescaling each structure constant c_ij^k by t to the
power w_k - w_i - w_j.  The limit as t grows is that closed form: it
keeps the exponent-zero constants, kills the negative ones, and fails
to exist when a positive one is present.  Curvature properties holding
strictly at the limit transfer back to the source group at a finite
parameter, each h_t being a linear isomorphism.
"""

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import _exactlp
from .brackets import (FLOAT, RATIONAL, BasisChange, Bracket, act, is_lie,
                       validate_jacobi)
from .curvature import extension_bracket, koszul_oracle
from .derivations import derivation_matrix, require_derivation, weight_vector
from .errors import NumericalError, PreconditionError

SCHEDULE = tuple(2 ** k for k in range(21))

RICCI_NEGATIVE = "RicciNegative"
SCALAR_NEGATIVE = "ScalarNegative"
PREDICATES = (RICCI_NEGATIVE, SCALAR_NEGATIVE)

_STRICT = -1e-9


@dataclass(frozen=True)
class DegenerationCurve:
    """The diagonal power curve t -> h_t = diag(t^w) acting on a source
    bracket: `exponents` is w, one finite real per basis direction."""

    source: Bracket
    exponents: tuple

    def __post_init__(self):
        if len(self.exponents) != self.source.dim:
            raise PreconditionError(
                f"expected {self.source.dim} exponents, got {len(self.exponents)}")
        # an int may be past float range; any other exponent must be finite
        if not all(isinstance(w, int) or math.isfinite(w) for w in self.exponents):
            raise PreconditionError(f"exponents must be finite, got {self.exponents}")

    @property
    def is_rational(self) -> bool:
        return self.source.is_rational and all(isinstance(w, int) for w in self.exponents)

    def element(self, t) -> BasisChange:
        """The basis change h_t; exact for integer t on integer exponents."""
        if t <= 0:
            raise PreconditionError("curve parameter must be positive")
        if self.is_rational and isinstance(t, (int, Fraction)):
            entries = [Fraction(t) ** w if w >= 0 else Fraction(1) / Fraction(t) ** -w
                       for w in self.exponents]
            return BasisChange.diagonal(entries)
        return BasisChange.diagonal([float(t) ** float(w) for w in self.exponents])

    def at(self, t) -> Bracket:
        """The curve point act(h_t, source)."""
        return act(self.element(t), self.source)


def diagonal_power_curve(source: Bracket, exponents) -> DegenerationCurve:
    return DegenerationCurve(source, tuple(exponents))


def face_steering_curve(source: Bracket, face) -> DegenerationCurve:
    """Diagonal curve whose limit keeps exactly the constants on `face`,
    a nonempty set of distinct triples of the source's constants.

    Every weight vector e_k - e_i - e_j has coordinate sum -1, so such a
    set spans a face of the weight hull exactly when a functional
    vanishes on it and is at most -1 on the other constants; the
    exponents are one, from an exact LP, so the off-face constants decay
    strictly.  Any other `face` raises PreconditionError.
    """
    face = tuple(sorted(tuple(t) for t in face))
    refusal = f"{face} does not span a face of the weight hull"
    if not face or len(set(face)) < len(face) or not set(face) <= source.constants.keys():
        raise PreconditionError(refusal)
    n = source.dim
    off = [t for t in sorted(source.constants) if t not in face]
    a_eq = [list(weight_vector(t, n)) for t in face]
    a_ub = [list(weight_vector(t, n)) for t in off]
    res = _exactlp.solve_lp([0] * n, a_ub=a_ub, b_ub=[-1] * len(off),
                            a_eq=a_eq, b_eq=[0] * len(face))
    if res.status != "optimal":
        raise PreconditionError(refusal)
    denom = math.lcm(*(v.denominator for v in res.x))
    exponents = tuple(int(v * denom) for v in res.x)
    return diagonal_power_curve(source, exponents)


def heintze_curve(D, b: Bracket, t=1.0) -> Bracket:
    """Rank-one extension with the generator acting as t*D.

    Restricted to the original coordinates the bracket is b itself; the
    generator sits at index 0.  At t = 1 this is the standard extension.
    """
    require_derivation(derivation_matrix(D, b.dim), b)
    return extension_bracket(D, b, t)


def heintze_degeneration(D, b: Bracket) -> DegenerationCurve:
    """The normalized extension curve, rescaled to converge as t grows.

    The curve point at t is 1/t times the extension with generator
    action t*D, a global scaling that preserves every curvature sign.
    The limit is the extension of the abelian algebra by D.
    """
    source = heintze_curve(D, b, 1)
    return diagonal_power_curve(source, (0,) + (1,) * b.dim)


def _schedule(t_max):
    ts = [t for t in SCHEDULE if t <= t_max]
    if len(ts) < 2:
        raise PreconditionError("t_max must allow at least two samples")
    return ts


def limit_bracket(curve: DegenerationCurve) -> Bracket:
    """Limit of the curve in closed form, validated as a Lie bracket.

    A constant whose rescaling exponent is zero is kept, a negative one
    is dropped, and a positive one means divergence (NumericalError).
    The limit is exact when the curve is.
    """
    w = curve.exponents
    kept = {}
    for (i, j, k), c in curve.source.constants.items():
        e = w[k] - w[i] - w[j]
        if abs(e) < 1e-12:
            kept[(i, j, k)] = c
        elif e > 0:
            raise NumericalError(
                f"constant at {(i, j, k)} grows like t^{e}; "
                "the curve does not converge")
    if curve.is_rational:
        limit = Bracket(curve.source.dim, kept, RATIONAL)
    else:
        limit = Bracket(curve.source.dim, {t: float(c) for t, c in kept.items()}, FLOAT)
    if not is_lie(limit):
        raise NumericalError(
            f"limit violates the Jacobi identity: residual {validate_jacobi(limit)}")
    return limit


def _curvature(b: Bracket) -> tuple:
    """(largest eigenvalue of the symmetrized Ricci operator, scalar
    curvature) of b at the standard metric."""
    rep = koszul_oracle(b)
    return float(np.linalg.eigvalsh(0.5 * (rep.ricci + rep.ricci.T)).max()), rep.scalar


def _predicate_value(b: Bracket, predicate: str) -> float:
    lam, scalar = _curvature(b)
    return lam if predicate == RICCI_NEGATIVE else scalar


@dataclass(frozen=True)
class TrajectoryPoint:
    t: float
    norm: float
    lambda_max: float
    scalar: float


def trajectory(curve: DegenerationCurve, t_max=2 ** 12):
    """Curvature log along the schedule: (t, |bracket|, max Ricci eigenvalue,
    scalar curvature) per sample."""
    rows = []
    for t in _schedule(t_max):
        nu = curve.at(t)
        rows.append(TrajectoryPoint(float(t), float(np.sqrt(float(nu.norm_sq()))),
                                    *_curvature(nu)))
    return tuple(rows)


@dataclass(frozen=True)
class PinchingResult:
    """Curvature transfer witness: at h_{t}, the transformed bracket has
    the requested property, so the pullback metric (gram h_t^T h_t)
    realizes it on the source group."""

    index: int
    t: float
    value: float
    bracket: Bracket
    metric: np.ndarray


@dataclass(frozen=True)
class PinchingFailure:
    """No sampled parameter reached the property; not a refutation."""

    t_max: float
    best_value: float
    reason: str


def pinching_transfer(curve: DegenerationCurve, predicate: str,
                      t_max=2 ** 20):
    """Smallest scheduled k with the predicate strict at act(h_{2^k}, source).

    The predicate must hold strictly at the curve limit; continuity then
    makes a finite parameter sufficient, and the scan returns the first
    one together with the pullback metric on the source.
    """
    if predicate not in PREDICATES:
        raise PreconditionError(f"predicate must be one of {PREDICATES}")
    lim = limit_bracket(curve)
    v_lim = _predicate_value(lim, predicate)
    if not v_lim < _STRICT:
        raise PreconditionError(
            f"{predicate} fails at the limit (value {v_lim:.6g}); "
            "nothing to transfer")
    best = np.inf
    for k, t in enumerate(_schedule(t_max)):
        nu = curve.at(t)
        v = _predicate_value(nu, predicate)
        if v < best:
            best = v
        if v < _STRICT:
            H = curve.element(t).as_array()
            return PinchingResult(k, float(t), v, nu, H.T @ H)
    return PinchingFailure(float(t_max), float(best),
                           "predicate not reached on the schedule; "
                           "not a refutation")
