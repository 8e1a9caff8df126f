"""Trust-region least squares without bounds.

A port of `trf_no_bounds` from scipy.optimize (Branch, Coleman and Li,
"A subspace, interior, and conjugate gradient method for large-scale
bound-constrained minimization problems", SIAM J. Sci. Comput. 1999)
for the one configuration orbit steering uses: linear loss, unit
variable scale, gtol = 0 and the exact trust-region solve on one SVD of
the Jacobian per accepted point (More, "The Levenberg-Marquardt
algorithm: implementation and theory", 1978).  It takes the same steps,
radius updates and termination tests as scipy's method="trf" given
`jac`, `ftol`, `xtol`, `gtol=None` and `max_nfev`, and counts nfev and
njev as it does.

The secular iteration for the Levenberg-Marquardt parameter runs on
Python floats over the singular values: the Jacobians here have at most
a dozen columns, where a numpy call costs more than the arithmetic.  Its
sums round differently from numpy's in the last bit, and the tests at
ftol = xtol = 3e-16 compare rounding-level quantities, so a run may stop
some trials earlier or later than scipy's.  With numpy's sums in `_norm`
and `_phi` it repeats scipy bit for bit.

A trial point where `fun` is not finite is a rejected step that cuts
the radius to a quarter of the step, as in scipy.  At the starting
point, where scipy raises, the result is returned at once.

The solver body is the generator `trf_steps`: it asks for each residual
and Jacobian it needs and takes the answer back, so that orbit steering
can run the solves of many draws in lockstep and answer one round of
requests with one stacked evaluation.  `trf_solve` drives it with a
residual and a Jacobian function, one request at a time.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

EPS = float(np.finfo(float).eps)


class TrfResult(NamedTuple):
    x: np.ndarray
    fun: np.ndarray
    nfev: int
    njev: int


def _norm(v):
    return math.sqrt(sum(t * t for t in v))


def _phi(alpha, suf, s2, delta):
    """|p(alpha)| - delta and its derivative in alpha, where p(alpha) is
    the step regularised by alpha, in right singular coordinates."""
    sq = slope = 0.0
    for u, t in zip(suf, s2):
        d = t + alpha
        q = u / d
        sq += q * q
        slope += q * q / d
    p_norm = math.sqrt(sq)
    return p_norm - delta, -slope / p_norm


def _svd_terms(J, f):
    """What the trust-region solves at one point take from the SVD J = U
    diag(s) V^T: V, s U^T f and s^2 as Python floats, and the
    Gauss-Newton step -V (U^T f / s) when J has full column rank, else
    None.  scipy.linalg's svd, as scipy's trf takes it: numpy's gives
    other last bits."""
    from scipy.linalg import svd

    m, n = J.shape
    U, s, Vt = svd(J, full_matrices=False)
    V, uf = Vt.T, U.T.dot(f)
    full_rank = m >= n and s[-1] > EPS * m * s[0]
    s_list = s.tolist()
    return (V, [t * u for t, u in zip(s_list, uf.tolist())], [t * t for t in s_list],
            -V.dot(uf / s) if full_rank else None)


def _trust_region_step(terms, delta, alpha):
    """The step minimising |J p + f| over |p| <= delta, with the
    Levenberg-Marquardt parameter of the previous solve as the first
    guess, found to within 1% of delta in at most ten iterations;
    returns (p, alpha).  `terms` is _svd_terms(J, f)."""
    V, suf, s2, gauss_newton = terms
    full_rank = gauss_newton is not None
    if full_rank and np.linalg.norm(gauss_newton) <= delta:
        return gauss_newton, 0.0
    alpha_upper = _norm(suf) / delta
    if full_rank:
        phi, slope = _phi(0.0, suf, s2, delta)
        alpha_lower = -phi / slope
    else:
        alpha_lower = 0.0
    if not full_rank and alpha == 0:
        alpha = max(0.001 * alpha_upper, (alpha_lower * alpha_upper) ** 0.5)
    for _ in range(10):
        if alpha < alpha_lower or alpha > alpha_upper:
            alpha = max(0.001 * alpha_upper, (alpha_lower * alpha_upper) ** 0.5)
        phi, slope = _phi(alpha, suf, s2, delta)
        if phi < 0:
            alpha_upper = alpha
        ratio = phi / slope
        alpha_lower = max(alpha_lower, alpha - ratio)
        alpha -= (phi + delta) * ratio / delta
        if abs(phi) < 0.01 * delta:
            break
    p = -V.dot([u / (t + alpha) for u, t in zip(suf, s2)])
    p *= delta / np.linalg.norm(p)
    return p, alpha


def _update_radius(delta, actual, predicted, step_norm, bound_hit):
    if predicted > 0:
        ratio = actual / predicted
    elif predicted == actual == 0:
        ratio = 1
    else:
        ratio = 0
    if ratio < 0.25:
        delta = 0.25 * step_norm
    elif ratio > 0.75 and bound_hit:
        delta *= 2.0
    return delta, ratio


def trf_steps(x0, ftol, xtol, max_nfev):
    """The solve from x0 as a generator, so that a caller can answer the
    requests of many solves with one stacked evaluation.  It yields
    ("f", x) and must be sent the residual at x, or ("j", x) and must be
    sent the Jacobian at x; it returns the TrfResult.  A "j" request is
    only ever made at the point of the latest "f" request, as in scipy's
    trf, so the two may share the work of one point."""
    x = np.array(x0, dtype=float)
    f = yield "f", x
    nfev = 1
    if not np.all(np.isfinite(f)):
        return TrfResult(x, f, nfev, 0)
    J = yield "j", x
    njev = 1
    cost = 0.5 * np.dot(f, f)
    g = J.T.dot(f)
    delta = float(np.linalg.norm(x)) or 1.0
    alpha = 0.0
    converged = False
    while not converged and nfev < max_nfev:
        terms = _svd_terms(J, f)
        actual = -1
        try:
            while actual <= 0 and nfev < max_nfev:
                step, alpha = _trust_region_step(terms, delta, alpha)
                Js = J.dot(step)
                predicted = -(0.5 * np.dot(Js, Js) + np.dot(step, g))
                x_new = x + step
                f_new = yield "f", x_new
                nfev += 1
                step_norm = math.sqrt(step.dot(step))
                if not np.all(np.isfinite(f_new)):
                    delta = 0.25 * step_norm
                    continue
                cost_new = 0.5 * np.dot(f_new, f_new)
                actual = cost - cost_new
                new_delta, ratio = _update_radius(delta, actual, predicted,
                                                  step_norm, step_norm > 0.95 * delta)
                converged = (actual < ftol * cost and ratio > 0.25
                             or step_norm < xtol * (xtol + np.linalg.norm(x)))
                if converged:
                    break
                alpha *= delta / new_delta
                delta = new_delta
        except ZeroDivisionError:
            # a zero radius or gradient: where Python raises, scipy's numpy
            # floats go to inf or NaN, every later step is NaN and every
            # trial up to max_nfev fails, so the current point is the result
            return TrfResult(x, f, max_nfev, njev)
        if actual > 0:
            x, f, cost = x_new, f_new, cost_new
            J = yield "j", x
            njev += 1
            g = J.T.dot(f)
    return TrfResult(x, f, nfev, njev)


def trf_solve(fun, jac, x0, ftol, xtol, max_nfev) -> TrfResult:
    """Minimise |fun(x)|^2 / 2 from x0, answering the requests of
    trf_steps one at a time."""
    steps = trf_steps(x0, ftol, xtol, max_nfev)
    try:
        kind, x = next(steps)
        while True:
            kind, x = steps.send(fun(x) if kind == "f" else jac(x))
    except StopIteration as done:
        return done.value
