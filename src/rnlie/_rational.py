"""Exact linear algebra over the rationals.

Small dense routines that take and return lists of lists of Fraction.
Dimensions in this package are tiny (n <= 9), so plain Gauss-Jordan
with exact pivoting is both fast enough and free of conditioning
questions.

Inside, a row is kept as a list of Python int numerators over one
positive int denominator, reduced by their common gcd after every
update, so each pivot costs integer products and one gcd per row
instead of a normalising gcd per entry (integer-preserving elimination:
Edmonds, J. Res. NBS 1967; Bareiss, Math. Comp. 1968).  Fractions are
built only when results are read out.  `_integer_row` is where an exact
row becomes integers: callers hand over ints, Fractions or floats as
they are, each read exactly by its integer ratio with no Fraction built
(a float's as_integer_ratio is its exact dyadic value), and
`_exactlp.solve_lp` and
`_hull._integer_row` (a primitive row, for double description and the
cone's elimination) scale through it.  `_pivot` is the one elimination
step, shared with the simplex in `_exactlp`, and `_eliminate` the one
Gauss-Jordan loop, shared with its proof of a proposed basis.
"""

import math
from fractions import Fraction


def _integer_row(row):
    """A rational row as (numerators, denominator), the denominator being
    the lcm of the entries' denominators, so the pair is already reduced.
    Each entry is read exactly as an integer ratio: an int, a Fraction or
    a float (numpy's float64 among them) by its own as_integer_ratio,
    anything else through Fraction.  An infinite float raises
    OverflowError and a NaN ValueError, as Fraction does."""
    ratios = [x.as_integer_ratio() if isinstance(x, (int, float, Fraction))
              else Fraction(x).as_integer_ratio() for x in row]
    den = math.lcm(*(d for _, d in ratios))
    return [v * (den // d) for v, d in ratios], den


def _reduced(nums, den):
    """(nums, den) divided by their common gcd; den must be positive."""
    g = math.gcd(den, *nums)
    if g == 1:
        return nums, den
    return [v // g for v in nums], den // g


def _pivot(rows, dens, r, c):
    """Divide row r by its entry in column c, then eliminate column c
    from every other row.

    Row i stands for the rationals rows[i][j] / dens[i], with dens[i]
    positive; both lists are updated in place and every row touched
    leaves reduced.  The pivot entry may have either sign.
    """
    piv = rows[r]
    p = piv[c]
    if p < 0:
        piv, p = [-v for v in piv], -p
    piv, p = _reduced(piv, p)
    rows[r], dens[r] = piv, p
    for i, row in enumerate(rows):
        a = row[c]
        if i == r or a == 0:
            continue
        # row/e - (a/e) piv/p = (p row - a piv) / (e p), after dividing
        # p and a by their gcd
        g = math.gcd(a, p)
        pg, ag = p // g, a // g
        rows[i], dens[i] = _reduced([pg * u - ag * v for u, v in zip(row, piv)],
                                    dens[i] * pg)


def _eliminate(mat, dens):
    """Gauss-Jordan elimination of the integer rows mat / dens in place,
    to reduced row echelon form; returns the pivot columns."""
    nrows, ncols = len(mat), len(mat[0]) if mat else 0
    pivots = []
    r = 0
    for c in range(ncols):
        if r >= nrows:
            break
        for i in range(r, nrows):
            if mat[i][c] != 0:
                break
        else:
            continue
        mat[r], mat[i] = mat[i], mat[r]
        dens[r], dens[i] = dens[i], dens[r]
        _pivot(mat, dens, r, c)
        pivots.append(c)
        r += 1
    return pivots


def _rref_integer(rows):
    """Reduced row echelon form as (numerator rows, denominators, pivot
    columns), the input scaled to integers row by row."""
    mat, dens = [], []
    for row in rows:
        nums, den = _integer_row(row)
        mat.append(nums)
        dens.append(den)
    return mat, dens, _eliminate(mat, dens)


def rref(rows):
    """Reduced row echelon form.

    Returns (reduced_rows, pivot_columns).  Input is not modified.
    """
    mat, dens, pivots = _rref_integer(rows)
    return [[Fraction(v, den) for v in row] for row, den in zip(mat, dens)], pivots


def nullspace(rows, ncols=None):
    """Basis of the right null space of a rational matrix.

    Returns a list of column vectors (lists of Fraction).  The basis is
    the canonical one read off the RREF: one vector per free column,
    with a 1 in the free coordinate.
    """
    if not rows:
        if ncols is None:
            raise ValueError("need ncols for an empty matrix")
        return [[Fraction(int(i == j)) for i in range(ncols)] for j in range(ncols)]
    ncols = len(rows[0]) if ncols is None else ncols
    mat, dens, pivots = _rref_integer(rows)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        vec = [Fraction(0)] * ncols
        vec[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            vec[pc] = Fraction(-mat[r][fc], dens[r])
        basis.append(vec)
    return basis


def solve(rows, rhs):
    """Solve A x = b exactly.  Returns one solution or None if inconsistent.

    If the system is underdetermined the free coordinates are set to 0.
    """
    if not rows:
        return []
    ncols = len(rows[0])
    mat, dens, pivots = _rref_integer([list(row) + [b] for row, b in zip(rows, rhs)])
    if ncols in pivots:
        return None
    x = [Fraction(0)] * ncols
    for r, pc in enumerate(pivots):
        x[pc] = Fraction(mat[r][ncols], dens[r])
    # rows below the last pivot must be all zero (checked via pivot cols)
    return x


def inverse(rows):
    """Exact inverse of a square rational matrix, or None if singular."""
    n = len(rows)
    mat, dens, pivots = _rref_integer([list(row) + [int(i == j) for j in range(n)]
                                       for i, row in enumerate(rows)])
    if pivots != list(range(n)):
        return None
    return [[Fraction(v, den) for v in row[n:]] for row, den in zip(mat, dens)]
