"""Exact row reduction, checked against Gauss-Jordan on Fractions."""

import math
import random
from fractions import Fraction as F

import numpy as np
import pytest

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


def reference_integer_row(row):
    """_integer_row with a Fraction built from every entry that is not an
    int or a Fraction, as it read rows before floats went through
    as_integer_ratio."""
    row = [x if isinstance(x, (int, F)) else F(x) for x in row]
    den = math.lcm(*(x.denominator for x in row))
    return [x.numerator * (den // x.denominator) for x in row], den


def test_integer_row_matches_fraction_reference():
    """The same integers, of the same types, for ints, Fractions, Python
    and numpy floats, numpy ints, -0.0, subnormals and +-1e308, alone and
    in seeded mixed rows."""
    tiny = 2.2250738585072014e-308
    entries = [0, 1, -7, 2 ** 70, True, F(3, 4), F(-5, 12), F(2 ** 80, 3 ** 40),
               0.1, -2.5, 0.0, -0.0, 5e-324, -5e-324, tiny / 3, tiny, 1e308, -1e308,
               np.float64(0.1), np.float64(-0.0), np.float64(5e-324), np.float64(-1e308),
               np.int64(-9), np.int32(12), np.int64(0)]
    rows = [[x] for x in entries] + [entries]
    rng = random.Random(5)
    rows += [rng.sample(entries, rng.randint(1, 8)) for _ in range(500)]
    def outcome(read, row):
        try:
            nums, den = read(row)
        except (OverflowError, ValueError) as exc:   # numpy ints times huge ones
            return type(exc)
        return nums, den, [type(v) for v in nums], type(den)

    for row in rows:
        assert outcome(_rational._integer_row, row) == outcome(reference_integer_row, row), row


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan,
                                 np.float64(np.inf), np.float64(np.nan)])
def test_integer_row_refuses_inf_and_nan_as_fraction_does(bad):
    with pytest.raises(Exception) as want:
        reference_integer_row([1, bad])
    with pytest.raises(type(want.value)):
        _rational._integer_row([1, bad])
    assert type(want.value) is (ValueError if math.isnan(bad) else OverflowError)
