"""Exact linear programming over the rationals.

Two-phase primal simplex with Bland's rule.  The solver maximizes c . x
subject to A_ub x <= b_ub and A_eq x = b_eq, with each variable either
free or constrained nonnegative, and takes and returns Fractions.

Each tableau row is kept as Python int numerators over one positive int
denominator (see `_rational._pivot`), each input row scaled to integers
once by the lcm of its denominators.  The pivot choices are those of the
same simplex on Fraction rows: the first allowed column with a negative
reduced cost enters, and the ratio test compares rhs_r / a_r crosswise,
since both pivot entries are positive, with exact ties broken on the
lower basis index.  So are the bases and every returned number.

Duals are read off the final objective row: the current column of row
i's artificial variable is B^-1 e_i, so its reduced cost is y_i = (c_B
B^-1)_i less the artificial's own cost.  For an infeasible system the
phase-1 duals form a Farkas style refutation vector.
"""

import math
from dataclasses import dataclass
from fractions import Fraction

from ._rational import _integer_row, _pivot, _reduced

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


def _simplex(tab, dens, basis, ncols):
    """Run Bland simplex on integer tableau rows [coeffs..., rhs], maximizing.

    Row i stands for tab[i] / dens[i] (see `_rational._pivot`).  The
    objective row tab[-1] stores reduced costs zbar_j and, in the last
    entry, the current objective value.  Only the first `ncols` columns
    may enter.  Returns "optimal" or "unbounded".
    """
    m = len(tab) - 1
    while True:
        z = tab[-1]
        enter = next((j for j in range(ncols) if z[j] < 0), None)
        if enter is None:
            return OPTIMAL
        # both pivot entries are positive, so the ratios compare crosswise
        leave = None
        for r in range(m):
            a = tab[r][enter]
            if a > 0:
                if leave is None:
                    leave, num, den = r, tab[r][-1], a
                    continue
                lhs, rhs = tab[r][-1] * den, num * a
                if lhs < rhs or (lhs == rhs and basis[r] < basis[leave]):
                    leave, num, den = r, tab[r][-1], a
        if leave is None:
            return UNBOUNDED
        _pivot(tab, dens, leave, enter)
        basis[leave] = enter


def _objective_row(cost, cden, tab, dens, basis):
    """The reduced-cost row -cost + sum_r cost[basis[r]] tab[r] of the
    costs cost / cden, as reduced (numerators, denominator); its last
    entry is the objective value."""
    active = [r for r in range(len(basis)) if cost[basis[r]] != 0]
    den = math.lcm(*(dens[r] for r in active))
    z = [-den * v for v in cost] + [0]
    for r in active:
        f = cost[basis[r]] * (den // dens[r])
        z = [a + f * b for a, b in zip(z, tab[r])]
    return _reduced(z, cden * den)


def solve_lp(c, a_ub=None, b_ub=None, a_eq=None, b_eq=None, nonneg=None):
    """Maximize c . x exactly.  nonneg is a per-variable bool list (default all free)."""
    nvars = len(c)
    a_ub, a_eq = list(a_ub or []), list(a_eq or [])
    rhs_all = list(b_ub or []) + list(b_eq or [])
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
    art0 = nstruct + n_ub
    ncols = nstruct + n_ub + m

    # each row scaled to integers once; a negative rhs flips the row but
    # not its artificial
    tab, dens, row_sign = [], [], []
    for r, src in enumerate(a_ub + a_eq):
        nums, den = _integer_row([src[v] for v in range(nvars)] + [rhs_all[r]])
        sign = -1 if nums[-1] < 0 else 1
        row = [0] * (ncols + 1)
        for jj, (v, s) in enumerate(col_of):
            row[jj] = sign * s * nums[v]
        if r < n_ub:
            row[nstruct + r] = sign * den
        row[art0 + r] = den
        row[-1] = sign * nums[-1]
        tab.append(row)
        dens.append(den)
        row_sign.append(sign)

    basis = [art0 + r for r in range(m)]

    # phase 1: minimize sum of artificials == maximize -(sum)
    z, zden = _objective_row([0] * art0 + [-1] * m, 1, tab, dens, basis)
    tab.append(z)
    dens.append(zden)
    _simplex(tab, dens, basis, ncols)
    z, zden = tab[-1], dens[-1]
    if z[-1] != 0:  # stored value is -(objective); nonzero means infeasible
        # the phase-1 duals y = c_B B^-1 sit in the artificial columns, shifted by -cost
        return LpResult(INFEASIBLE, certificate=[
            row_sign[r] * Fraction(z[art0 + r] - zden, zden) for r in range(m)])

    # drive any lingering artificial out of the basis if possible
    for r in range(m):
        if basis[r] >= art0 and tab[r][-1] == 0:
            for j in range(art0):
                if tab[r][j] != 0:
                    _pivot(tab, dens, r, j)
                    basis[r] = j
                    break

    # phase 2; artificials may not re-enter
    cnums, cden = _integer_row(c)
    cost = [cnums[v] * s for v, s in col_of] + [0] * (ncols - nstruct)
    tab[-1], dens[-1] = _objective_row(cost, cden, tab, dens, basis)
    if _simplex(tab, dens, basis, art0) == UNBOUNDED:
        return LpResult(UNBOUNDED)

    x = [Fraction(0)] * nvars
    for r in range(m):
        j = basis[r]
        if j < nstruct:
            v, s = col_of[j]
            x[v] += s * Fraction(tab[r][-1], dens[r])
    # the artificials cost nothing here, so their reduced costs are the duals
    z, zden = tab[-1], dens[-1]
    duals = [row_sign[r] * Fraction(z[art0 + r], zden) for r in range(m)]
    return LpResult(OPTIMAL, x=x, objective=Fraction(z[-1], zden),
                    dual_ub=duals[:n_ub], dual_eq=duals[n_ub:])
