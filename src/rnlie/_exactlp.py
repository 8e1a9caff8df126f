"""Exact linear programming over the rationals.

Two-phase primal simplex with Bland's rule on Fraction tableaus.  Sizes
here are tiny (tens of rows), so exactness matters far more than speed.
The solver maximizes c . x subject to A_ub x <= b_ub and A_eq x = b_eq,
with each variable either free or constrained nonnegative.

Duals are read off the final tableau: the current column of row i's
artificial variable is B^-1 e_i, so y = c_B B^-1 comes out as a dot
product.  For an infeasible system the phase-1 duals form a Farkas
style refutation vector.
"""

from dataclasses import dataclass
from fractions import Fraction

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"


@dataclass
class LpResult:
    status: str
    x: list | None = None
    objective: Fraction | None = None
    dual_ub: list | None = None
    dual_eq: list | None = None
    certificate: list | None = None  # phase-1 duals (ub rows then eq rows) if infeasible


def _simplex(tab, basis, ncols, allowed):
    """Run Bland simplex on tableau rows [coeffs..., rhs], maximizing.

    The objective row is tab[-1] storing reduced costs zbar_j and, in the
    last entry, the current objective value.  Pivots only on columns in
    `allowed`.  Returns "optimal" or "unbounded".
    """
    m = len(tab) - 1
    while True:
        enter = None
        for j in range(ncols):
            if j in allowed and tab[-1][j] < 0:
                enter = j
                break
        if enter is None:
            return OPTIMAL
        leave = None
        best = None
        for r in range(m):
            a = tab[r][enter]
            if a > 0:
                ratio = tab[r][-1] / a
                if best is None or ratio < best or (ratio == best and basis[r] < basis[leave]):
                    best = ratio
                    leave = r
        if leave is None:
            return UNBOUNDED
        piv = tab[leave][enter]
        tab[leave] = [v / piv for v in tab[leave]]
        for r in range(m + 1):
            if r != leave and tab[r][enter] != 0:
                f = tab[r][enter]
                tab[r] = [a - f * b for a, b in zip(tab[r], tab[leave])]
        basis[leave] = enter


def solve_lp(c, a_ub=None, b_ub=None, a_eq=None, b_eq=None, nonneg=None):
    """Maximize c . x exactly.  nonneg is a per-variable bool list (default all free)."""
    c = [Fraction(v) for v in c]
    nvars = len(c)
    a_ub = [list(map(Fraction, r)) for r in (a_ub or [])]
    b_ub = [Fraction(v) for v in (b_ub or [])]
    a_eq = [list(map(Fraction, r)) for r in (a_eq or [])]
    b_eq = [Fraction(v) for v in (b_eq or [])]
    if nonneg is None:
        nonneg = [False] * nvars
    n_ub, n_eq = len(a_ub), len(a_eq)
    m = n_ub + n_eq

    # expanded structural columns: nonneg vars keep one column, free vars get +/- pair
    col_of = []  # list of (var, sign)
    for i in range(nvars):
        col_of.append((i, 1))
        if not nonneg[i]:
            col_of.append((i, -1))
    nstruct = len(col_of)
    slack0 = nstruct
    art0 = nstruct + n_ub
    ncols = nstruct + n_ub + m

    rows = []
    row_sign = []
    rhs_all = b_ub + b_eq
    for r in range(m):
        src = a_ub[r] if r < n_ub else a_eq[r - n_ub]
        coeffs = [src[v] * s for (v, s) in col_of]
        slacks = [Fraction(0)] * n_ub
        if r < n_ub:
            slacks[r] = Fraction(1)
        rhs = rhs_all[r]
        sign = 1
        if rhs < 0:
            coeffs = [-v for v in coeffs]
            slacks = [-v for v in slacks]
            rhs = -rhs
            sign = -1
        arts = [Fraction(0)] * m
        arts[r] = Fraction(1)
        rows.append(coeffs + slacks + arts + [rhs])
        row_sign.append(sign)

    basis = [art0 + r for r in range(m)]

    # phase 1: minimize sum of artificials == maximize -(sum)
    obj = [Fraction(0)] * ncols + [Fraction(0)]
    for r in range(m):
        obj[art0 + r] = Fraction(1)
    for r in range(m):
        obj = [a - b for a, b in zip(obj, rows[r])]
    tab = [row[:] for row in rows] + [obj]
    allowed = set(range(ncols))
    _simplex(tab, basis, ncols, allowed)
    if tab[-1][-1] != 0:  # stored value is -(objective); nonzero means infeasible
        phase1_cost = [Fraction(0)] * ncols
        for r in range(m):
            phase1_cost[art0 + r] = Fraction(-1)
        cert = []
        for r in range(m):
            col = art0 + r
            y = sum(phase1_cost[basis[i]] * tab[i][col] for i in range(m))
            cert.append(row_sign[r] * y)
        return LpResult(INFEASIBLE, certificate=cert)

    # drive any lingering artificial out of the basis if possible
    for r in range(m):
        if basis[r] >= art0 and tab[r][-1] == 0:
            for j in range(art0):
                if tab[r][j] != 0:
                    piv = tab[r][j]
                    tab[r] = [v / piv for v in tab[r]]
                    for rr in range(len(tab)):
                        if rr != r and tab[rr][j] != 0:
                            f = tab[rr][j]
                            tab[rr] = [a - f * b for a, b in zip(tab[rr], tab[r])]
                    basis[r] = j
                    break

    # phase 2
    cost = [Fraction(0)] * ncols
    for jj, (v, s) in enumerate(col_of):
        cost[jj] = c[v] * s
    zrow = [-cost[j] for j in range(ncols)] + [Fraction(0)]
    tab[-1] = zrow
    for r in range(m):
        cb = cost[basis[r]]
        if cb != 0:
            tab[-1] = [a + cb * b for a, b in zip(tab[-1], tab[r])]
    allowed = set(range(art0))  # artificials may not re-enter
    status = _simplex(tab, basis, ncols, allowed)
    if status == UNBOUNDED:
        return LpResult(UNBOUNDED)

    x = [Fraction(0)] * nvars
    for r in range(m):
        j = basis[r]
        if j < nstruct:
            v, s = col_of[j]
            x[v] += s * tab[r][-1]
    duals = []
    for r in range(m):
        col = art0 + r
        y = sum(cost[basis[i]] * tab[i][col] for i in range(m))
        duals.append(row_sign[r] * y)
    objective = sum(ci * xi for ci, xi in zip(c, x))
    return LpResult(OPTIMAL, x=x, objective=objective,
                    dual_ub=duals[:n_ub], dual_eq=duals[n_ub:])
