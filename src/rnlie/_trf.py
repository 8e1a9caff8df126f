"""Trust-region least squares without bounds, over a stack of problems.

A port of `trf_no_bounds` from scipy.optimize (Branch, Coleman and Li,
"A subspace, interior, and conjugate gradient method for large-scale
bound-constrained minimization problems", SIAM J. Sci. Comput. 1999)
for the one configuration orbit steering uses: linear loss, unit
variable scale, gtol = 0 and the exact trust-region solve on one SVD of
the Jacobian per accepted point (More, "The Levenberg-Marquardt
algorithm: implementation and theory", 1978).  Each solve takes the
same steps, radius updates and termination tests as scipy's
method="trf" given `jac`, `ftol`, `xtol`, `gtol=None` and `max_nfev`,
and counts nfev and njev as it does.

`trf_stack` runs one solve per row in lockstep, so that orbit steering
answers each round with one stacked residual and one stacked Jacobian.
The rows' points, residuals, Jacobians (read column-major, as
steering's come), gradients and singular vectors are stacked arrays,
and every product is an np.matvec or np.vecdot: the same cblas dgemv or
ddot on each row as np.dot on the row alone, so each row gets the bits
of a solve of its own.  The SVD is scipy.linalg.svd's LAPACK call, as
scipy's trf takes it: numpy's svd gives other last bits.

The secular iteration for the Levenberg-Marquardt parameter runs per
row on Python floats, where a numpy call would cost more than the
arithmetic, and sums only the nonzero terms of s U^T f, since a zero
term adds zero; where it would not (t + alpha == 0, or alpha NaN) it
sums them all.  Steering's Jacobians never have full column rank, so it
never lands within 1% of the radius and runs all ten iterations.  Its
sums round differently from numpy's in the last bit, and the tests at
ftol = xtol = 3e-16 compare rounding-level quantities, so a solve may
stop some trials earlier or later than scipy's.  With numpy's sums in
`_norm` and `_phi` it repeats scipy bit for bit.

A trial point where `fun` is not finite is a rejected step that cuts
the radius to a quarter of the step, as in scipy.  At the starting
point, where scipy raises, the solve ends at once.
"""

from __future__ import annotations

import functools
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


@functools.lru_cache(maxsize=8)
def _gesdd(m, n):
    """scipy.linalg.svd's LAPACK routine and work size for m x n floats,
    looked up once: its checks cost more than a steering SVD."""
    from scipy.linalg import lapack

    gesdd, lwork = lapack.get_lapack_funcs(("gesdd", "gesdd_lwork"), (np.empty((m, n)),),
                                           ilp64="preferred")
    return gesdd, lapack._compute_lwork(lwork, m, n, compute_uv=True, full_matrices=False)


def _svd_terms(J, f):
    """What the trust-region solves at one point take from the SVD J = U
    diag(s) V^T: V; s U^T f and s^2 as Python floats, their nonzero terms
    and the set of s^2 of the zero ones; and the coefficients U^T f / s
    of the Gauss-Newton step -V (U^T f / s) and its norm when J has full
    column rank, else None and None."""
    m, n = J.shape
    gesdd, lwork = _gesdd(m, n)
    U, s, Vt, info = gesdd(J, compute_uv=True, lwork=lwork, full_matrices=False,
                           overwrite_a=False)
    if info > 0:
        raise np.linalg.LinAlgError("SVD did not converge")
    V, uf = Vt.T, U.T.dot(f)
    s_list = s.tolist()
    suf = [t * u for t, u in zip(s_list, uf.tolist())]
    s2 = [t * t for t in s_list]
    gauss_newton = gn_norm = None
    if m >= n and s_list[-1] > EPS * m * s_list[0]:
        gauss_newton = uf / s
        gn_norm = np.linalg.norm(-V.dot(gauss_newton))
        gauss_newton = gauss_newton.tolist()
    kept = [(u, t) for u, t in zip(suf, s2) if u != 0]
    return (V, suf, s2, [u for u, _ in kept], [t for _, t in kept],
            {t for u, t in zip(suf, s2) if u == 0}, gauss_newton, gn_norm)


def _trust_region_step(terms, delta, alpha):
    """The step minimising |J p + f| over |p| <= delta, with the
    Levenberg-Marquardt parameter of the previous solve as the first
    guess, found to within 1% of delta in at most ten iterations, as (w,
    alpha, scaled): the step is -V w, rescaled to length delta if
    `scaled`.  `terms` is _svd_terms(J, f)."""
    _, suf, s2, suf_kept, s2_kept, zeros, gauss_newton, gn_norm = terms
    full_rank = gauss_newton is not None
    if full_rank and gn_norm <= delta:
        return gauss_newton, 0.0, False
    alpha_upper = _norm(suf_kept) / delta
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
        if alpha != alpha or -alpha in zeros:   # where a zero term adds no zero
            phi, slope = _phi(alpha, suf, s2, delta)
        else:
            phi, slope = _phi(alpha, suf_kept, s2_kept, delta)
        if phi < 0:
            alpha_upper = alpha
        ratio = phi / slope
        alpha_lower = max(alpha_lower, alpha - ratio)
        alpha -= (phi + delta) * ratio / delta
        if abs(phi) < 0.01 * delta:
            break
    return [u / (t + alpha) for u, t in zip(suf, s2)], alpha, True


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


class _Solve:
    """The scalars of one row's solve.  take_residual and take_jacobian
    take the answer to its latest request and return the next: "f" for
    the residual at a new trial point, whose _trust_region_step they
    leave in `step`; "j" for the Jacobian at the trial point just
    answered, which becomes its point; None once it has ended there."""

    __slots__ = ("ftol", "xtol", "max_nfev", "nfev", "njev", "cost", "delta", "alpha",
                 "converged", "terms", "step", "predicted", "step_norm", "x_norm")

    def __init__(self, ftol, xtol, max_nfev, x0_norm):
        self.ftol, self.xtol, self.max_nfev, self.nfev, self.njev = ftol, xtol, max_nfev, 0, 0
        self.delta, self.alpha, self.converged = x0_norm or 1.0, 0.0, False

    def take_residual(self, finite, cost):
        self.nfev += 1
        if self.nfev == 1:
            self.cost = cost
            return "j" if finite else None
        if not finite:
            self.delta = 0.25 * self.step_norm
            return self.trial() if self.nfev < self.max_nfev else None
        actual = self.cost - cost
        new_delta, ratio = _update_radius(self.delta, actual, self.predicted, self.step_norm,
                                          self.step_norm > 0.95 * self.delta)
        self.converged = (actual < self.ftol * self.cost and ratio > 0.25
                          or self.step_norm < self.xtol * (self.xtol + self.x_norm))
        if not self.converged:
            try:
                self.alpha *= self.delta / new_delta
            except ZeroDivisionError:
                return self.zero_radius()
            self.delta = new_delta
        if actual > 0:
            self.cost = cost
            return "j"
        return self.trial() if not self.converged and self.nfev < self.max_nfev else None

    def take_jacobian(self, J, f, x_norm, finite):
        self.njev += 1
        self.x_norm = x_norm
        if self.converged or self.nfev >= self.max_nfev:
            return None
        if not finite:
            raise ValueError("array must not contain infs or NaNs")   # as scipy's svd
        self.terms = _svd_terms(J, f)
        return self.trial()

    def trial(self):
        try:
            self.step = _trust_region_step(self.terms, self.delta, self.alpha)
        except ZeroDivisionError:
            return self.zero_radius()
        self.alpha = self.step[1]
        return "f"

    def zero_radius(self):
        # a zero radius or gradient: where Python raises, scipy's numpy
        # floats go to inf or NaN, every later step is NaN and every trial
        # up to max_nfev fails, so the current point is the result
        self.nfev = self.max_nfev
        return None


def trf_stack(fun, jac, X0, ftol, xtol, max_nfev, lands, check_start=False):
    """Minimise |fun(x)|^2 / 2 from each row of X0, the solves in lockstep;
    return each row's TrfResult.  A round calls fun(rows, X) once, for
    the residuals at the rows of X, the trial points of the solves still
    running from the rows `rows` of X0; then, if any of them accepted its
    point, jac(positions) once, for the Jacobians at the points of that
    call's X indexed by the list `positions`.

    The results are needed in order up to the first solve that ends at
    an f with lands(f) false: the list ends there, and the later solves
    are cut short at once.  With `check_start`, a solve whose first
    residual lands ends there, with njev = 0.
    """
    T = x = np.array(X0, dtype=float)
    results = [None] * len(x)
    rows = list(range(len(x)))
    solves = [_Solve(ftol, xtol, max_nfev, math.sqrt(sq)) for sq in np.vecdot(x, x).tolist()]
    f = Jt = g = V = None

    def cuts(i):
        """Record the end of solve i; whether it cuts the later ones."""
        results[rows[i]] = TrfResult(x[i], f[i], solves[i].nfev, solves[i].njev)
        if lands(f[i]):
            return False
        del results[rows[i] + 1:]
        return True

    while rows:
        F = fun(rows, T)
        if f is None:
            f = np.array(F)
        asks = []
        for i, (solve, cost) in enumerate(zip(solves, (0.5 * np.vecdot(F, F)).tolist())):
            if check_start and lands(F[i]):
                solve.nfev, asked = 1, None
            else:   # a finite cost has a finite residual
                asked = solve.take_residual(math.isfinite(cost) or np.isfinite(F[i]).all(), cost)
            asks.append(asked)
            if asked is None and cuts(i):
                break
        check_start = False
        jrows = [i for i, asked in enumerate(asks) if asked == "j"]
        if jrows:
            JnT = np.ascontiguousarray(jac(jrows).transpose(0, 2, 1))
            if Jt is None:
                Jt = np.empty((len(rows),) + JnT.shape[1:])
                g, V = np.empty(x.shape), np.empty((len(rows), x.shape[1], min(JnT.shape[1:])))
            pos = slice(None) if len(jrows) == len(rows) else np.array(jrows)
            Tj, Fj = T[pos], F[pos]
            x[pos], f[pos], Jt[pos], g[pos] = Tj, Fj, JnT, np.matvec(JnT, Fj)
            finite = np.isfinite(JnT).all((1, 2)).tolist()
            for k, (i, sq) in enumerate(zip(jrows, np.vecdot(Tj, Tj).tolist())):
                asks[i] = solves[i].take_jacobian(JnT[k].T, Fj[k], math.sqrt(sq), finite[k])
                if asks[i] == "f":
                    V[i] = solves[i].terms[0]
                elif cuts(i):
                    del asks[i + 1:]
                    break
        keep = [i for i, asked in enumerate(asks) if asked == "f"]
        if len(keep) < len(rows):
            rows, solves = [rows[i] for i in keep], [solves[i] for i in keep]
            if not keep:
                break
            keep = np.array(keep)
            x, f, Jt, g, V = x[keep], f[keep], Jt[keep], g[keep], V[keep]
        # p = -V w, rescaled to the radius: -(V w) s has the bits of (V w) (-s)
        P = np.matvec(V, np.array([solve.step[0] for solve in solves]))
        scale = np.array([solve.delta for solve in solves]) / np.sqrt(np.vecdot(P, P))
        for i, solve in enumerate(solves):
            if not solve.step[2]:
                scale[i] = 1.0
        P *= -scale[:, None]
        JP = np.matvec(Jt.transpose(0, 2, 1), P)
        T = x + P
        for solve, jj, pg, pp in zip(solves, np.vecdot(JP, JP).tolist(), np.vecdot(P, g).tolist(),
                                     np.vecdot(P, P).tolist()):
            solve.predicted = -(0.5 * jj + pg)
            solve.step_norm = math.sqrt(pp)
    return results
