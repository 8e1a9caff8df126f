"""Exact row reduction, checked against Gauss-Jordan on Fractions."""

import random
from fractions import Fraction as F

from rnlie import _rational


def reference_rref(rows):
    """Gauss-Jordan on Fraction rows, as it was before the rows were kept
    as integers over one denominator."""
    mat = [[F(x) for x in row] for row in rows]
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
        inv = F(1) / mat[r][c]
        mat[r] = [v * inv for v in mat[r]]
        for i in range(nrows):
            if i != r and mat[i][c] != 0:
                f = mat[i][c]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
    return mat, pivots


def reference_nullspace(rows):
    ncols = len(rows[0])
    red, pivots = reference_rref(rows)
    basis = []
    for fc in (c for c in range(ncols) if c not in pivots):
        vec = [F(0)] * ncols
        vec[fc] = F(1)
        for r, pc in enumerate(pivots):
            vec[pc] = -red[r][fc]
        basis.append(vec)
    return basis


def reference_solve(rows, rhs):
    ncols = len(rows[0])
    red, pivots = reference_rref([list(row) + [b] for row, b in zip(rows, rhs)])
    if ncols in pivots:
        return None
    x = [F(0)] * ncols
    for r, pc in enumerate(pivots):
        x[pc] = red[r][ncols]
    return x


def reference_inverse(rows):
    n = len(rows)
    red, pivots = reference_rref([list(row) + [F(int(i == j)) for j in range(n)]
                                  for i, row in enumerate(rows)])
    if pivots != list(range(n)):
        return None
    return [row[n:] for row in red]


def _random_matrix(rng):
    """Up to 6 x 7, over denominators 1, 2, 3, 7 and 64; half of them are
    combinations of at most as many random rows as they have."""
    def q():
        if rng.random() < 0.3:
            return F(0)
        return F(rng.randint(-9, 9), rng.choice((1, 1, 2, 3, 7, 64)))

    nrows, ncols = rng.randint(1, 6), rng.randint(1, 7)
    if rng.random() < 0.5:
        base = [[q() for _ in range(ncols)] for _ in range(rng.randint(1, nrows))]
        return [[sum(q() * row[j] for row in base) for j in range(ncols)]
                for _ in range(nrows)]
    return [[q() for _ in range(ncols)] for _ in range(nrows)]


def test_rref_matches_fraction_reference():
    """rref, nullspace, solve and inverse agree byte for byte with their
    Fraction forms on 2400 seeded matrices, over 250 of them rank deficient."""
    rng = random.Random(11)
    deficient = 0
    for _ in range(2400):
        mat = _random_matrix(rng)
        got = _rational.rref(mat)
        assert repr(got) == repr(reference_rref(mat)), mat
        deficient += len(got[1]) < min(len(mat), len(mat[0]))
        assert repr(_rational.nullspace(mat)) == repr(reference_nullspace(mat))
        rhs = [row[0] + row[-1] for row in mat] if rng.random() < 0.5 else \
            [F(rng.randint(-5, 5)) for _ in mat]
        assert repr(_rational.solve(mat, rhs)) == repr(reference_solve(mat, rhs))
        square = [row[:len(mat)] for row in mat] if len(mat[0]) >= len(mat) else None
        if square:
            assert repr(_rational.inverse(square)) == repr(reference_inverse(square))
    assert deficient >= 250


def test_rref_takes_ints_floats_and_empty_input():
    assert _rational.rref([]) == ([], [])
    assert _rational.rref([[0.5, 2], [1, 4]]) == ([[F(1), F(4)], [F(0), F(0)]], [0])
    assert _rational.inverse([[2]]) == [[F(1, 2)]]
