"""Exact simplex checks, including cross-validation against scipy."""

from fractions import Fraction as F

import numpy as np
from scipy.optimize import linprog

from rnlie._exactlp import solve_lp


def test_margin_lp_feasible_hand_case():
    # maximize eps st b >= 0, eps + b*F <= D entrywise, F = (-1,-1,1), D = (1,1,2)
    c = [F(1), F(0)]
    a_ub = [[F(1), F(-1)], [F(1), F(-1)], [F(1), F(1)]]
    b_ub = [F(1), F(1), F(2)]
    res = solve_lp(c, a_ub=a_ub, b_ub=b_ub, nonneg=[False, True])
    assert res.status == "optimal"
    assert res.objective == F(3, 2)


def test_margin_lp_infeasible_dual():
    c = [F(1), F(0)]
    a_ub = [[F(1), F(-1)], [F(1), F(-1)], [F(1), F(1)]]
    b_ub = [F(-1), F(1), F(0)]
    res = solve_lp(c, a_ub=a_ub, b_ub=b_ub, nonneg=[False, True])
    assert res.status == "optimal"
    assert res.objective == F(-1, 2)
    y = res.dual_ub
    # dual certificate: y >= 0, y . rows dominate the objective
    assert all(v >= 0 for v in y)
    assert sum(y) == F(1)


def test_unbounded():
    res = solve_lp([F(1)], a_ub=[[F(-1)]], b_ub=[F(0)], nonneg=[True])
    assert res.status == "unbounded"


def test_infeasible_farkas():
    res = solve_lp([F(0)], a_ub=[[F(1)], [F(-1)]], b_ub=[F(-2), F(1)], nonneg=[True])
    assert res.status == "infeasible"
    assert res.certificate is not None
    # Farkas: y >= 0 with y^T A >= 0 componentwise on nonneg vars and y.b < 0
    y = res.certificate
    assert all(v >= 0 for v in y)
    assert y[0] * F(-2) + y[1] * F(1) < 0


def test_equality_constraints():
    res = solve_lp([F(1), F(1)], a_eq=[[F(1), F(1)]], b_eq=[F(1)],
                   nonneg=[True, True])
    assert res.status == "optimal"
    assert res.objective == F(1)


def test_random_cross_check_with_scipy():
    rng = np.random.default_rng(2024)
    for _ in range(25):
        m, n = rng.integers(1, 4), rng.integers(1, 4)
        A = rng.integers(-3, 4, size=(m, n))
        bvec = rng.integers(-2, 5, size=m)
        cvec = rng.integers(-3, 4, size=n)
        res = solve_lp([F(int(x)) for x in cvec],
                       a_ub=[[F(int(x)) for x in row] for row in A],
                       b_ub=[F(int(x)) for x in bvec],
                       nonneg=[True] * int(n))
        ref = linprog(-cvec.astype(float), A_ub=A.astype(float),
                      b_ub=bvec.astype(float), bounds=[(0, None)] * int(n),
                      method="highs")
        if res.status == "optimal":
            assert ref.status == 0
            assert abs(float(res.objective) + ref.fun) < 1e-8
            # strong duality with the exact dual
            dual_val = sum(y * F(int(bb)) for y, bb in zip(res.dual_ub, bvec))
            assert dual_val == res.objective
        elif res.status == "unbounded":
            assert ref.status == 3
        else:
            assert ref.status == 2
