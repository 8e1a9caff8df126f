"""Exact linear programming over the rationals.

The solver maximizes c . x subject to A_ub x <= b_ub and A_eq x = b_eq,
with each variable either free or constrained nonnegative, and takes and
returns Fractions.  A free variable is split into a column and its
mirror, the negated column; each inequality row gets a slack column.

A program without equality rows is first solved in three steps, the
way exact LP solvers use floating point to find a basis and rational
arithmetic to prove it (Applegate, Cook, Dash and Espinoza, Oper. Res.
Lett. 2007; Koch, Oper. Res. Lett. 2004):

- Proposal: a float two-phase Bland simplex (`_float_basis`) names a
  basis, k structural columns plus the slacks of the loose rows.  It
  names none when its own optimum is already degenerate in floats.  Its
  tableau is never rebuilt: where pivots on tiny entries of a degenerate
  row leave it inexact, the basis it ends on may not be optimal, and the
  proof refuses it.
- Proof: integer elimination of the k x k tight rows alone
  (`_proved_optimum`), with their right-hand sides and an identity
  beside them, gives the basic values and the duals.  The basis is
  proved when every basic value, loose-row slack, tight-row dual and
  nonbasic reduced cost is strictly positive.  The one exception is the
  mirror of a basic free column, whose reduced cost is identically zero.
- Fallback: if there is no proposal, or the proof fails, the exact
  two-phase Bland simplex below (`_bland`) solves the program.  This
  covers degenerate optima, equality rows, infeasible and unbounded
  programs, singular or non-optimal proposals and float overflow.

Why a proved basis gives Bland's answer: with every other reduced cost
positive, an optimum is zero off the basis and its mirrors, and adding
a mirror pair only moves along a ray, so the basic solution is the one
optimal vertex.  Its support is the whole basis, so no other basis
stands for it, and Bland's final basis, which is optimal, is the proved
one.  The solution, objective and duals are functions of the basis, so
they are Bland's to the byte.  The float tolerances decide only how
often the proof succeeds, never an answer.

Bland's tableau rows are kept as Python int numerators over one
positive int denominator (see `_rational._pivot`), each input row scaled
to integers once by the lcm of its denominators.  The pivot choices are
those of the same simplex on Fraction rows: the first allowed column
with a negative reduced cost enters, and the ratio test compares rhs_r /
a_r crosswise, since both pivot entries are positive, with exact ties
broken on the lower basis index.  So are the bases and every returned
number.

Duals are read off the final objective row: the current column of row
i's artificial variable is B^-1 e_i, so its reduced cost is y_i = (c_B
B^-1)_i less the artificial's own cost.  For an infeasible system the
phase-1 duals form a Farkas style refutation vector.
"""

import math
from dataclasses import dataclass
from fractions import Fraction

from ._rational import _eliminate, _integer_row, _pivot, _reduced

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"

# the float proposal's zero: reduced costs, pivot entries and the phase-1
# objective within it count as zero
_FLOAT_TOL = 1e-12


@dataclass
class LpResult:
    status: str
    x: list | None = None
    objective: Fraction | None = None
    dual_ub: list | None = None
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


def _float_simplex(tab, basis, ncols):
    """Bland simplex on float tableau rows [coeffs..., rhs], maximizing:
    the float twin of `_simplex`, with _FLOAT_TOL as zero.  Returns False
    if unbounded or past a pivot bound that a cycling float run would
    hit, True at an optimum."""
    m = len(tab) - 1
    for _ in range(8 * (m + ncols)):
        z = tab[-1]
        enter = next((j for j in range(ncols) if z[j] < -_FLOAT_TOL), None)
        if enter is None:
            return True
        # the least ratio, near-ties going to the larger pivot entry
        leave = None
        for r in range(m):
            a = tab[r][enter]
            if a > _FLOAT_TOL:
                ratio = tab[r][-1] / a
                if (leave is None or ratio < best - _FLOAT_TOL
                        or (ratio <= best + _FLOAT_TOL and a > tab[leave][enter])):
                    leave, best = r, ratio
        if leave is None:
            return False
        _float_pivot(tab, leave, enter)
        basis[leave] = enter
    return False


def _float_pivot(tab, r, c):
    """Divide float row r by its entry in column c, then eliminate column
    c from every other row, in place."""
    piv = tab[r]
    p = piv[c]
    piv = tab[r] = [v / p for v in piv]
    for i, row in enumerate(tab):
        a = row[c]
        if i != r and a != 0.0:
            tab[i] = [u - a * v for u, v in zip(row, piv)]


def _float_rows(rows, col_of):
    """The inequality rows `rows` ((numerators, denominator) of [A_r...,
    b_r]) as float tableau rows [structural columns as in `col_of`,
    slacks, rhs], each flipped to a nonnegative rhs.  Raises
    OverflowError if an entry overflows a float."""
    m, nstruct = len(rows), len(col_of)
    tab = []
    for r, (nums, den) in enumerate(rows):
        if nums[-1] < 0:
            den = -den
        row = [s * nums[v] / den for v, s in col_of] + [0.0] * (m + 1)
        row[nstruct + r] = 1.0 if den > 0 else -1.0
        row[-1] = nums[-1] / den
        tab.append(row)
    return tab


def _float_basis(rows, col_of, cnums, cden):
    """A basis the float simplex finds optimal, and not degenerate, for
    the inequality rows `rows`, as a list of column indices (structural
    columns as in `col_of`, then one slack per row); None if it finds
    none, finds a degenerate one, or a value overflows a float."""
    m, nstruct = len(rows), len(col_of)
    ncols = nstruct + m
    try:
        tab = _float_rows(rows, col_of)
        cost = [s * cnums[v] / cden for v, s in col_of] + [0.0] * m
    except OverflowError:
        return None
    # a row with b_r >= 0 starts on its slack; a flipped row on an
    # artificial (marked -1), whose column the float run never needs.
    # Phase 1 maximizes minus the sum of the artificials; one still basic
    # at its end sits at zero, a degenerate start left to Bland.
    basis = [nstruct + r if tab[r][nstruct + r] > 0 else -1 for r in range(m)]
    art = [row for row, j in zip(tab, basis) if j < 0]
    if art:
        tab.append([-sum(col) for col in zip(*art)])
        if (not _float_simplex(tab, basis, ncols) or tab[-1][-1] < -_FLOAT_TOL
                or min(basis) < 0):
            return None
        tab.pop()
    # phase 2.  A pivot on a tiny entry (on a degenerate row, where the
    # ratio test has no choice) can leave the float tableau inexact; the
    # proof, not the tableau, decides whether the basis it ends on stands.
    tab.append(_float_objective(cost, tab, basis))
    if not _float_simplex(tab, basis, ncols):
        return None
    # the proof needs every basic value and every reduced cost but the
    # mirrors' strictly positive; a float zero among them ends here
    bvars = {col_of[j][0] for j in basis if j < nstruct}
    z = tab[-1]
    if (min(row[-1] for row in tab[:-1]) <= _FLOAT_TOL
            or any(z[j] <= _FLOAT_TOL for j in range(nstruct) if col_of[j][0] not in bvars)
            or any(z[j] <= _FLOAT_TOL for j in range(nstruct, ncols) if j not in basis)):
        return None
    return basis


def _float_objective(cost, tab, basis):
    """The reduced-cost row -cost + sum_r cost[basis[r]] tab[r]."""
    z = [-v for v in cost] + [0.0]
    for r, j in enumerate(basis):
        if cost[j]:
            z = [a + cost[j] * b for a, b in zip(z, tab[r])]
    return z


def _proved_optimum(rows, col_of, cnums, cden, basis):
    """The LpResult of the inequality program `rows`, maximizing
    (cnums / cden) . x, if `basis` is proved its strictly complementary
    optimal basis (see the module docstring); otherwise None."""
    m, nstruct = len(rows), len(col_of)
    basic = [j for j in basis if j < nstruct]
    loose = [j - nstruct for j in basis if j >= nstruct]
    tight = sorted(set(range(m)).difference(loose))
    k = len(basic)
    if len(tight) != k:
        return None
    cols = [col_of[j] for j in basic]
    # [M | b | I] on the tight rows, M_rj = s_j A_rv_j (rows scaled by
    # den_r), eliminated to [I | x_B | M^-1]
    mat = []
    for i, r in enumerate(tight):
        nums = rows[r][0]
        unit = [0] * k
        unit[i] = 1
        mat.append([s * nums[v] for v, s in cols] + [nums[-1]] + unit)
    dens = [1] * k
    if _eliminate(mat, dens) != list(range(k)):
        return None
    den = math.lcm(*dens)
    mat = [[v * (den // d) for v in row[k:]] for row, d in zip(mat, dens)]
    # basic values x_B = xs / den
    xs = [row[0] for row in mat]
    if min(xs, default=1) <= 0:
        return None
    for r in loose:
        nums = rows[r][0]
        if nums[-1] * den - sum(s * nums[v] * x for (v, s), x in zip(cols, xs)) <= 0:
            return None
    # duals c_B M^-1 = ys / den of the scaled tight rows, in units of
    # 1 / cden; row r's own dual is ys_r den_r / (den cden)
    cb = [s * cnums[v] for v, s in cols]
    ys = [sum(c * row[1 + t] for c, row in zip(cb, mat)) for t in range(k)]
    if min(ys, default=1) <= 0:
        return None
    # nonbasic reduced costs; a column of a basic variable is basic or the
    # mirror of a basic free column, whose reduced cost is 0
    bvars = {v for v, _ in cols}
    for v, s in col_of:
        if v in bvars:
            continue
        if s * (sum(y * rows[r][0][v] for r, y in zip(tight, ys)) - cnums[v] * den) <= 0:
            return None
    x = [Fraction(0)] * len(cnums)
    for (v, s), xv in zip(cols, xs):
        x[v] = Fraction(s * xv, den)
    objective = Fraction(sum(c * xv for c, xv in zip(cb, xs)), cden * den)
    dual_ub = [Fraction(0)] * m
    for r, y in zip(tight, ys):
        dual_ub[r] = Fraction(y * rows[r][1], den * cden)
    return LpResult(OPTIMAL, x=x, objective=objective, dual_ub=dual_ub)


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
    # expanded structural columns: nonneg vars keep one column, free vars get +/- pair
    col_of = []  # list of (var, sign)
    for i in range(nvars):
        col_of.append((i, 1))
        if not nonneg[i]:
            col_of.append((i, -1))
    # each row scaled to integers once
    rows = [_integer_row([src[v] for v in range(nvars)] + [rhs_all[r]])
            for r, src in enumerate(a_ub + a_eq)]
    cnums, cden = _integer_row(c)
    if rows and not a_eq:
        basis = _float_basis(rows, col_of, cnums, cden)
        if basis is not None:
            res = _proved_optimum(rows, col_of, cnums, cden, basis)
            if res is not None:
                return res
    return _bland(rows, len(a_ub), col_of, cnums, cden)


def _bland(rows, n_ub, col_of, cnums, cden):
    """The exact two-phase Bland simplex on the integer rows of
    `solve_lp`: the first n_ub rows are inequalities, the rest
    equalities."""
    nvars, m = len(cnums), len(rows)
    nstruct = len(col_of)
    art0 = nstruct + n_ub
    ncols = nstruct + n_ub + m

    # a negative rhs flips the row but not its artificial
    tab, dens, row_sign = [], [], []
    for r, (nums, den) in enumerate(rows):
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
    dual_ub = [row_sign[r] * Fraction(z[art0 + r], zden) for r in range(n_ub)]
    return LpResult(OPTIMAL, x=x, objective=Fraction(z[-1], zden), dual_ub=dual_ub)
