"""Hypothesis strategies shared by the property tests.

`brackets()` draws small rational brackets, Lie or not; with
nilpotent=True every constant c_ij^k has k > max(i, j), so every long
enough product of basis vectors vanishes.  `nice_brackets()` draws
nilpotent brackets in a nice basis.  The Jacobi identity is not
enforced: the draws are for comparing routines, Lie and not Lie.
"""

from fractions import Fraction

from hypothesis import strategies as st

from rnlie.brackets import Bracket


def rationals(max_num=3, max_den=4):
    """Nonzero Fractions p/q with |p| <= max_num and 1 <= q <= max_den."""
    nums = st.integers(1, max_num).flatmap(lambda p: st.sampled_from([-p, p]))
    return st.builds(Fraction, nums, st.integers(1, max_den))


@st.composite
def brackets(draw, min_dim=2, max_dim=6, nilpotent=False, max_constants=10):
    """A Bracket of dimension min_dim..max_dim with rational constants
    keyed (i, j, k), i < j; k > j on every key when nilpotent."""
    n = draw(st.integers(min_dim, max_dim))
    keys = [(i, j, k) for i in range(n) for j in range(i + 1, n) for k in range(n)
            if not nilpotent or k > j]
    if not keys:
        return Bracket(n, {})
    constants = draw(st.dictionaries(st.sampled_from(keys), rationals(),
                                     max_size=max_constants))
    return Bracket(n, constants)


@st.composite
def nice_brackets(draw, min_dim=3, max_dim=7, max_constants=8):
    """A Bracket of dimension min_dim..max_dim in a nice basis, with
    rational constants: each key (i, j, k) has i < j < k, each pair
    (i, j) has at most one k, and pairs with a common k share no index.
    Drawn keys that break the last two rules are skipped."""
    n = draw(st.integers(min_dim, max_dim))
    keys = [(i, j, k) for i in range(n) for j in range(i + 1, n) for k in range(j + 1, n)]
    constants = {}
    for i, j, k in draw(st.lists(st.sampled_from(keys), max_size=max_constants,
                                 unique=True)):
        if not any((p, q) == (i, j) or (r == k and {p, q} & {i, j})
                   for p, q, r in constants):
            constants[(i, j, k)] = draw(rationals())
    return Bracket(n, constants)
