"""Exact linear algebra over the rationals.

Small dense routines on lists of lists of Fraction.  Dimensions in this
package are tiny (n <= 9), so plain Gauss-Jordan with exact pivoting is
both fast enough and free of conditioning questions.
"""

from fractions import Fraction


def _as_fraction_rows(rows):
    return [[Fraction(x) for x in row] for row in rows]


def rref(rows):
    """Reduced row echelon form.

    Returns (reduced_rows, pivot_columns).  Input is not modified.
    """
    mat = _as_fraction_rows(rows)
    if not mat:
        return [], []
    nrows, ncols = len(mat), len(mat[0])
    pivots = []
    r = 0
    for c in range(ncols):
        if r >= nrows:
            break
        pivot_row = None
        for i in range(r, nrows):
            if mat[i][c] != 0:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        mat[r], mat[pivot_row] = mat[pivot_row], mat[r]
        inv = Fraction(1) / mat[r][c]
        mat[r] = [v * inv for v in mat[r]]
        for i in range(nrows):
            if i != r and mat[i][c] != 0:
                f = mat[i][c]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
    return mat, pivots


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
    red, pivots = rref(rows)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        vec = [Fraction(0)] * ncols
        vec[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            vec[pc] = -red[r][fc]
        basis.append(vec)
    return basis


def solve(rows, rhs):
    """Solve A x = b exactly.  Returns one solution or None if inconsistent.

    If the system is underdetermined the free coordinates are set to 0.
    """
    if not rows:
        return []
    ncols = len(rows[0])
    aug = [[Fraction(v) for v in row] + [Fraction(b)] for row, b in zip(rows, rhs)]
    red, pivots = rref(aug)
    if ncols in pivots:
        return None
    x = [Fraction(0)] * ncols
    for r, pc in enumerate(pivots):
        x[pc] = red[r][ncols]
    # rows below the last pivot must be all zero (checked via pivot cols)
    return x


def inverse(rows):
    """Exact inverse of a square rational matrix, or None if singular."""
    n = len(rows)
    aug = [[Fraction(v) for v in row] + [Fraction(int(i == j)) for j in range(n)]
           for i, row in enumerate(rows)]
    red, pivots = rref(aug)
    if pivots != list(range(n)):
        return None
    return [row[n:] for row in red]
