"""Exact simplex checks, including cross-validation against scipy."""

from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from rnlie import _exactlp, certify, degeneration
from rnlie._exactlp import LpResult, solve_lp
from rnlie.corpus import corpus
from rnlie.moment import DERIVATION_CENTRALIZER, orbit_sample


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


def _reference_simplex(tab, basis, ncols, allowed):
    m = len(tab) - 1
    while True:
        enter = None
        for j in range(ncols):
            if j in allowed and tab[-1][j] < 0:
                enter = j
                break
        if enter is None:
            return "optimal"
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
            return "unbounded"
        piv = tab[leave][enter]
        tab[leave] = [v / piv for v in tab[leave]]
        for r in range(m + 1):
            if r != leave and tab[r][enter] != 0:
                f = tab[r][enter]
                tab[r] = [a - f * b for a, b in zip(tab[r], tab[leave])]
        basis[leave] = enter


def reference_solve_lp(c, a_ub=None, b_ub=None, a_eq=None, b_eq=None, nonneg=None):
    """The two-phase Bland simplex on Fraction tableaus, as it was before
    the tableau rows were kept as integers: the same pivots, with the
    duals and the Farkas certificate read off as dot products."""
    c = [F(v) for v in c]
    nvars = len(c)
    a_ub = [list(map(F, r)) for r in (a_ub or [])]
    b_ub = [F(v) for v in (b_ub or [])]
    a_eq = [list(map(F, r)) for r in (a_eq or [])]
    b_eq = [F(v) for v in (b_eq or [])]
    if nonneg is None:
        nonneg = [False] * nvars
    n_ub, n_eq = len(a_ub), len(a_eq)
    m = n_ub + n_eq
    col_of = []
    for i in range(nvars):
        col_of.append((i, 1))
        if not nonneg[i]:
            col_of.append((i, -1))
    nstruct = len(col_of)
    art0 = nstruct + n_ub
    ncols = nstruct + n_ub + m
    rows, row_sign = [], []
    rhs_all = b_ub + b_eq
    for r in range(m):
        src = a_ub[r] if r < n_ub else a_eq[r - n_ub]
        coeffs = [src[v] * s for (v, s) in col_of]
        slacks = [F(0)] * n_ub
        if r < n_ub:
            slacks[r] = F(1)
        rhs = rhs_all[r]
        sign = 1
        if rhs < 0:
            coeffs = [-v for v in coeffs]
            slacks = [-v for v in slacks]
            rhs = -rhs
            sign = -1
        arts = [F(0)] * m
        arts[r] = F(1)
        rows.append(coeffs + slacks + arts + [rhs])
        row_sign.append(sign)
    basis = [art0 + r for r in range(m)]
    obj = [F(0)] * ncols + [F(0)]
    for r in range(m):
        obj[art0 + r] = F(1)
    for r in range(m):
        obj = [a - b for a, b in zip(obj, rows[r])]
    tab = [row[:] for row in rows] + [obj]
    _reference_simplex(tab, basis, ncols, set(range(ncols)))
    if tab[-1][-1] != 0:
        phase1_cost = [F(0)] * ncols
        for r in range(m):
            phase1_cost[art0 + r] = F(-1)
        cert = []
        for r in range(m):
            y = sum(phase1_cost[basis[i]] * tab[i][art0 + r] for i in range(m))
            cert.append(row_sign[r] * y)
        return LpResult("infeasible", certificate=cert)
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
    cost = [F(0)] * ncols
    for jj, (v, s) in enumerate(col_of):
        cost[jj] = c[v] * s
    tab[-1] = [-cost[j] for j in range(ncols)] + [F(0)]
    for r in range(m):
        cb = cost[basis[r]]
        if cb != 0:
            tab[-1] = [a + cb * b for a, b in zip(tab[-1], tab[r])]
    if _reference_simplex(tab, basis, ncols, set(range(art0))) == "unbounded":
        return LpResult("unbounded")
    x = [F(0)] * nvars
    for r in range(m):
        j = basis[r]
        if j < nstruct:
            v, s = col_of[j]
            x[v] += s * tab[r][-1]
    duals = []
    for r in range(m):
        y = sum(cost[basis[i]] * tab[i][art0 + r] for i in range(m))
        duals.append(row_sign[r] * y)
    objective = sum(ci * xi for ci, xi in zip(c, x))
    return LpResult("optimal", x=x, objective=objective,
                    dual_ub=duals[:n_ub], dual_eq=duals[n_ub:])


def _random_lp(rng):
    """A small LP with sparse entries over denominators 1, 2, 3, 7 and 64:
    inequality and equality rows, right-hand sides of both signs, free
    and nonnegative variables."""
    def q():
        if rng.random() < 0.3:
            return F(0)
        return F(rng.randint(-9, 9), rng.choice((1, 1, 2, 3, 7, 64)))

    nvars = rng.randint(1, 4)
    n_ub, n_eq = rng.randint(0, 5), rng.randint(0, 2)
    if n_ub + n_eq == 0:
        n_ub = 1
    kwargs = {"nonneg": [rng.random() < 0.6 for _ in range(nvars)]}
    if n_ub:
        kwargs["a_ub"] = [[q() for _ in range(nvars)] for _ in range(n_ub)]
        kwargs["b_ub"] = [q() for _ in range(n_ub)]
    if n_eq:
        kwargs["a_eq"] = [[q() for _ in range(nvars)] for _ in range(n_eq)]
        kwargs["b_eq"] = [q() for _ in range(n_eq)]
    return [q() for _ in range(nvars)], kwargs


def test_integer_tableau_matches_fraction_reference():
    """Same status, solution, objective, duals and certificate, byte for
    byte, on 2400 seeded LPs covering every outcome."""
    import random
    rng = random.Random(9)
    statuses = {"optimal": 0, "infeasible": 0, "unbounded": 0}
    for _ in range(2400):
        c, kwargs = _random_lp(rng)
        got = solve_lp(c, **kwargs)
        assert repr(got) == repr(reference_solve_lp(c, **kwargs)), (c, kwargs)
        statuses[got.status] += 1
    assert min(statuses.values()) >= 200, statuses


def _float_margin_program(rng, npoints, nrows=5):
    """A sampled-style margin LP: measured diagonals become Fractions with
    denominators near 2**52, under a mass penalty of 1e-9 and a cap."""
    d_exact = [F(float(v)) for v in (0.7, 1.3, 2.0, 2.0, 3.3)[:nrows]]
    points = [[F(float(v)) for v in rng.normal(0.0, 1.0, nrows)] for _ in range(npoints)]
    a_ub = [[F(1)] + [p[r] for p in points] for r in range(nrows)]
    a_ub.append([F(1)] + [F(0)] * npoints)
    b_ub = d_exact + [1 + 2 * max(abs(v) for v in d_exact)]
    args = ([F(1)] + [-certify.SAMPLING_SLACK] * npoints,)
    kwargs = dict(a_ub=a_ub, b_ub=b_ub, nonneg=[False] + [True] * npoints)
    return args, kwargs


def test_float_derived_margin_lp_matches_fraction_reference():
    args, kwargs = _float_margin_program(np.random.default_rng(5), 8)
    assert max(v.denominator for row in kwargs["a_ub"] for v in row) >= 2 ** 52
    got = solve_lp(*args, **kwargs)
    assert got.status == "optimal"
    assert repr(got) == repr(reference_solve_lp(*args, **kwargs))


# -- proof of a float-proposed basis, and the Bland fallback ---------------


def _refuse(*args, **kwargs):
    raise AssertionError("the Bland fallback ran")


def _counting(monkeypatch, name):
    """Wrap _exactlp.<name> so that calls to it are counted."""
    calls = []
    original = getattr(_exactlp, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)
    monkeypatch.setattr(_exactlp, name, counted)
    return calls


def _recorded(monkeypatch, owner, call):
    """The (args, kwargs) of every solve_lp call that `call()` makes
    through owner.solve_lp."""
    programs = []

    def record(*args, **kwargs):
        programs.append((args, kwargs))
        return solve_lp(*args, **kwargs)
    monkeypatch.setattr(owner, "solve_lp", record)
    call()
    monkeypatch.setattr(owner, "solve_lp", solve_lp)
    return programs


@pytest.mark.parametrize("diag, count, seed", [
    ((1, 2, 3, 3, 4), 8, 1), ((1, 2, 3, 3, 4), 8, 13), ((1, 2, 3, 3, 4), 8, 29),
    ((1, 2, 3, 3, 4), 48, 2), ((1, 1, 2, 2, 3), 8, 2), ((1, 1, 2, 2, 3), 8, 3)])
def test_sampled_margin_programs_are_proved(monkeypatch, diag, count, seed):
    """tricky5 SampledLP programs are answered by the proof alone."""
    t5 = corpus("tricky5").bracket
    D = np.diag(np.array(diag, dtype=float))
    sample = orbit_sample(DERIVATION_CENTRALIZER, t5, count=count, seed=seed, derivation=D)
    monkeypatch.setattr(_exactlp, "_bland", _refuse)
    ((args, kwargs),) = _recorded(
        monkeypatch, certify, lambda: certify.certify_srn_sampled(D, t5, sample))
    assert len(kwargs["a_ub"][0]) == count + 1
    assert repr(solve_lp(*args, **kwargs)) == repr(reference_solve_lp(*args, **kwargs))


def test_inexact_float_run_falls_back(monkeypatch):
    """tricky5 at diag(1, 1, 2, 2, 3), seed 1: two equal entries make the
    float run pivot on entries near 1e-5 of a degenerate row, so its
    tableau grows to 1e13 and the basis it ends on is not optimal.  The
    proof refuses that basis and Bland answers."""
    t5 = corpus("tricky5").bracket
    D = np.diag(np.array((1, 1, 2, 2, 3), dtype=float))
    sample = orbit_sample(DERIVATION_CENTRALIZER, t5, count=8, seed=1, derivation=D)
    ((args, kwargs),) = _recorded(
        monkeypatch, certify, lambda: certify.certify_srn_sampled(D, t5, sample))
    proofs = _counting(monkeypatch, "_proved_optimum")
    bland = _counting(monkeypatch, "_bland")
    assert repr(solve_lp(*args, **kwargs)) == repr(reference_solve_lp(*args, **kwargs))
    assert (len(proofs), len(bland)) == (1, 1)


def test_gaussian_margin_program_is_proved(monkeypatch):
    args, kwargs = _float_margin_program(np.random.default_rng(5), 8)
    monkeypatch.setattr(_exactlp, "_bland", _refuse)
    assert repr(solve_lp(*args, **kwargs)) == repr(reference_solve_lp(*args, **kwargs))


def test_rows_past_float_range_fall_back(monkeypatch):
    """The margin LP with every row scaled by 10**400: the float proposal
    overflows and names no basis, and Bland answers on the same integer
    rows, at the unscaled program's vertex."""
    args, kwargs = _float_margin_program(np.random.default_rng(5), 8)
    unscaled = solve_lp(*args, **kwargs)
    big = 10 ** 400
    kwargs["a_ub"] = [[v * big for v in row] for row in kwargs["a_ub"]]
    kwargs["b_ub"] = [v * big for v in kwargs["b_ub"]]
    proposals, propose = [], _exactlp._float_basis

    def watched(*lp):
        proposals.append((lp, propose(*lp)))
        return proposals[-1][1]
    monkeypatch.setattr(_exactlp, "_float_basis", watched)
    got = solve_lp(*args, **kwargs)
    [((rows, col_of, cnums, cden), basis)] = proposals
    assert basis is None
    want = _exactlp._bland(rows, len(rows), col_of, cnums, cden)
    assert (got.x, got.objective, got.dual_ub) == (want.x, want.objective, want.dual_ub)
    assert got.status == "optimal"
    assert (got.x, got.objective) == (unscaled.x, unscaled.objective)


def test_equality_rows_fall_back(monkeypatch):
    """A zero-objective program with equality rows, as face steering
    solves it, goes to Bland."""
    t5 = corpus("tricky5").bracket
    ((args, kwargs),) = _recorded(
        monkeypatch, degeneration._exactlp,
        lambda: degeneration.face_steering_curve(t5, ((0, 2, 4), (0, 3, 4))))
    assert kwargs["a_eq"] and not any(args[0])
    bland = _counting(monkeypatch, "_bland")
    assert repr(solve_lp(*args, **kwargs)) == repr(reference_solve_lp(*args, **kwargs))
    assert len(bland) == 1


def test_degenerate_nice_optimum_falls_back(monkeypatch):
    """heisenberg:3 at diag(1, 1, 2): two equal rows make the optimum
    degenerate, so no basis is proposed and Bland answers."""
    h3 = corpus("heisenberg", 3).bracket
    ((args, kwargs),) = _recorded(
        monkeypatch, certify,
        lambda: certify.certify_srn_nice([F(1), F(1), F(2)], h3))
    proposals = _counting(monkeypatch, "_float_basis")
    bland = _counting(monkeypatch, "_bland")
    got = solve_lp(*args, **kwargs)
    assert repr(got) == repr(reference_solve_lp(*args, **kwargs))
    assert (len(proposals), len(bland)) == (1, 1)
    assert got.objective == F(3, 2)


@pytest.mark.parametrize("proposal", ["slack basis", "singular"])
def test_bad_proposals_are_refused(monkeypatch, proposal):
    """A feasible basis that is not optimal (every slack basic, margin 0)
    and a singular one (a free column with its mirror) both fail the
    proof, and Bland answers."""
    args, kwargs = _float_margin_program(np.random.default_rng(5), 8)
    nstruct, m = 1 + len(args[0]), len(kwargs["a_ub"])   # eps has a mirror

    def propose(rows, col_of, cnums, cden):
        slacks = [nstruct + r for r in range(m)]
        return slacks if proposal == "slack basis" else [0, 1] + slacks[2:]
    monkeypatch.setattr(_exactlp, "_float_basis", propose)
    bland = _counting(monkeypatch, "_bland")
    assert repr(solve_lp(*args, **kwargs)) == repr(reference_solve_lp(*args, **kwargs))
    assert len(bland) == 1


def test_singular_proposal_is_refused(monkeypatch):
    """max x with 0 x <= 1 and x <= 5: the basis {x, slack of row 1}
    leaves row 0 tight, whose entry under x is 0.  Read past its
    singular elimination, that basis would claim x = 1."""
    c, kwargs = [F(1)], dict(a_ub=[[F(0)], [F(1)]], b_ub=[F(1), F(5)], nonneg=[True])
    monkeypatch.setattr(_exactlp, "_float_basis", lambda *args: [0, 2])
    bland = _counting(monkeypatch, "_bland")
    got = solve_lp(c, **kwargs)
    assert repr(got) == repr(reference_solve_lp(c, **kwargs))
    assert got.x == [F(5)] and len(bland) == 1


@settings(max_examples=30)
@given(seed=st.integers(0, 2 ** 32 - 1), npoints=st.integers(8, 48),
       nrows=st.integers(3, 5))
def test_float_derived_programs_match_fraction_reference(seed, npoints, nrows):
    args, kwargs = _float_margin_program(np.random.default_rng(seed), npoints, nrows)
    assert repr(solve_lp(*args, **kwargs)) == repr(reference_solve_lp(*args, **kwargs))


def test_every_proposed_basis_is_proved_or_refused(monkeypatch):
    """Each basis of small dense inequality programs, proposed in turn:
    the proof accepts at most the one optimal basis, and every answer is
    the reference's."""
    import itertools
    import random
    rng = random.Random(28)

    def q():
        return F(rng.randint(-9, 9), rng.randint(1, 9))

    accepted = 0
    for _ in range(60):
        nvars, m = rng.randint(1, 3), rng.randint(2, 4)
        c = [q() for _ in range(nvars)]
        kwargs = {"a_ub": [[q() for _ in range(nvars)] for _ in range(m)],
                  "b_ub": [q() for _ in range(m)],
                  "nonneg": [rng.random() < 0.6 for _ in range(nvars)]}
        ncols = sum(1 if nn else 2 for nn in kwargs["nonneg"]) + m
        want = repr(reference_solve_lp(c, **kwargs))
        for basis in itertools.combinations(range(ncols), m):
            monkeypatch.setattr(_exactlp, "_float_basis", lambda *args: list(basis))
            bland = _counting(monkeypatch, "_bland")
            assert repr(solve_lp(c, **kwargs)) == want, (c, kwargs, basis)
            accepted += not bland
            monkeypatch.undo()
    # 17 of the 60 programs have a strictly complementary optimum
    assert accepted == 17
