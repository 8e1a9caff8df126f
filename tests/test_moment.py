import math
import os
import subprocess
import sys
import zlib
from fractions import Fraction as F
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import expm, svd
from scipy.optimize import least_squares

from rnlie import _trf, moment
from rnlie.brackets import Bracket, BasisChange, act, act_tensor, gram_difference
from rnlie.corpus import corpus
from rnlie.curvature import ricci_nilpotent
from rnlie.errors import NumericalError, PreconditionError
from rnlie.moment import (_acted_moment_matrix,
                          _draw_block_element, _exp_directions, _group_blocks,
                          _metric_factors, _steered, _steering_jacobians,
                          _steering_residuals, closure_faces, moment_map,
                          nice_basis_check, orbit_sample, unpack_blocks,
                          weight_coordinates, weight_matrix, weight_polytope)
from rnlie.rng import generator

T5_TRIPLES = ((0, 1, 2), (0, 1, 3), (0, 2, 4), (0, 3, 4))


def t5():
    return corpus("tricky5").bracket


def h(n):
    return corpus("heisenberg", n).bracket


def t5_coordinate_rows(sample):
    """weight_coordinates of each sampled tricky5 point over T5_TRIPLES,
    with a last column for the mass on triples outside that pattern."""
    rows = []
    for g, _ in sample.points:
        coords = weight_coordinates(act(BasisChange(g), t5()))
        row = [float(coords.pop(t, 0.0)) for t in T5_TRIPLES]
        rows.append(row + [float(sum(coords.values()))])
    return np.array(rows)


class TestMomentMap:
    def test_elementary_brackets_hit_weight_matrices_exactly(self):
        for n in range(3, 7):
            for i in range(n):
                for j in range(i + 1, n):
                    for k in range(n):
                        b = Bracket(n, {(i, j, k): F(1)})
                        mv = moment_map(b)
                        expected = weight_matrix((i, j, k), n)
                        assert np.array_equal(mv.matrix, expected)
                        diag = [mv.exact[r][r] for r in range(n)]
                        assert diag == list(np.diag(expected))

    def test_trace_and_symmetry_on_random_brackets(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            n = int(rng.integers(2, 7))
            consts = {}
            for i in range(n):
                for j in range(i + 1, n):
                    for k in range(n):
                        if rng.random() < 0.3:
                            consts[(i, j, k)] = float(rng.normal())
            if not consts:
                continue
            mv = moment_map(Bracket(n, consts, "float"))
            assert abs(np.trace(mv.matrix) + 1.0) < 1e-10
            assert np.abs(mv.matrix - mv.matrix.T).max() < 1e-12

    def test_zero_bracket_rejected(self):
        with pytest.raises(PreconditionError):
            moment_map(corpus("abelian", 3).bracket)

    def test_tricky5_at_ones(self):
        mv = moment_map(t5())
        diag = [mv.exact[i][i] for i in range(5)]
        assert diag == [F(-1), F(-1, 2), F(0), F(0), F(1, 2)]
        assert mv.offdiagonal_max() == 0.0

    def test_tricky5_pattern_closed_form(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            x, y, z, w = rng.uniform(0.05, 4.0, size=4)
            b = Bracket(5, {(0, 1, 2): x, (0, 1, 3): y,
                            (0, 2, 4): z, (0, 3, 4): w}, "float")
            m = moment_map(b).matrix
            s = x * x + y * y + z * z + w * w
            expect = (x * x * weight_matrix((0, 1, 2), 5)
                      + y * y * weight_matrix((0, 1, 3), 5)
                      + z * z * weight_matrix((0, 2, 4), 5)
                      + w * w * weight_matrix((0, 3, 4), 5))
            expect[2, 3] = expect[3, 2] = x * y - z * w
            expect /= s
            assert np.abs(m - expect).max() < 1e-10

    def test_orthogonal_equivariance(self):
        rng = np.random.default_rng(8)
        b = t5().to_float()
        for _ in range(10):
            q, _ = np.linalg.qr(rng.normal(size=(5, 5)))
            acted = act(BasisChange(q), b)
            lhs = moment_map(acted).matrix
            rhs = q @ moment_map(b).matrix @ q.T
            assert np.abs(lhs - rhs).max() < 1e-10

    def test_scale_invariance(self):
        b = t5()
        for c in (F(3), F(-1, 7)):
            assert moment_map(b.scaled(c)).exact == moment_map(b).exact

    def test_agreement_with_ricci(self):
        for name, param in [("heisenberg", 5), ("tricky5", None),
                            ("filiform", 5)]:
            b = corpus(name, param).bracket
            m = moment_map(b).matrix
            ric = ricci_nilpotent(b)
            norm = float(sum(2 * c * c for c in b.constants.values()))
            assert np.abs(m - 4.0 * ric / norm).max() < 1e-9


class TestWeightPolytope:
    def test_h3_single_point(self):
        p = weight_polytope(h(3))
        assert p.vertices == ((0, 1, 2),)
        assert p.face_count() == 1
        assert p.dim == 0
        assert np.array_equal(weight_matrix(p.vertices[0], 3),
                              np.diag([-1.0, -1.0, 1.0]))

    def test_h5_segment(self):
        p = weight_polytope(h(5))
        assert p.vertices == ((0, 1, 4), (2, 3, 4))
        assert p.face_count() == 3

    def test_tricky5_rectangle(self):
        p = weight_polytope(t5())
        assert p.vertices == T5_TRIPLES
        assert p.dim == 2
        assert p.face_count() == 9
        edge_sets = {fr for fr in p.hull_faces if len(fr) == 2}
        assert edge_sets == {((0, 1, 2), (0, 1, 3)), ((0, 1, 3), (0, 2, 4)),
                             ((0, 2, 4), (0, 3, 4)), ((0, 1, 2), (0, 3, 4))}
        # the diagonals pair F_12^3 with F_13^5 and F_12^4 with F_14^5
        assert ((0, 1, 2), (0, 2, 4)) not in edge_sets
        assert ((0, 1, 3), (0, 3, 4)) not in edge_sets

    def test_dimension_guard(self):
        with pytest.raises(PreconditionError):
            weight_polytope(corpus("heisenberg", 9).bracket)


class TestWeightCoordinates:
    def test_exact_identity_tricky5(self):
        b = t5()
        coords = weight_coordinates(b)
        assert coords == {tr: F(1, 4) for tr in T5_TRIPLES}
        diag = [moment_map(b).exact[i][i] for i in range(5)]
        acc = [F(0)] * 5
        for tr, c in coords.items():
            i, j, k = tr
            acc[i] -= c
            acc[j] -= c
            acc[k] += c
        assert acc == diag

    def test_float_identity_random(self):
        rng = np.random.default_rng(2)
        consts = {(0, 1, 2): 1.3, (0, 2, 3): -0.4, (1, 2, 4): 2.2}
        b = Bracket(5, consts, "float")
        coords = weight_coordinates(b)
        assert abs(sum(coords.values()) - 1.0) < 1e-12
        acc = np.zeros(5)
        for tr, c in coords.items():
            acc += c * np.diag(weight_matrix(tr, 5))
        assert np.abs(acc - np.diag(moment_map(b).matrix)).max() < 1e-12


class TestNiceBasis:
    def test_heisenbergs_are_nice(self):
        for m in (3, 5, 7):
            assert nice_basis_check(h(m)).ok

    def test_abelian_vacuously_nice(self):
        assert nice_basis_check(corpus("abelian", 4).bracket).ok

    def test_tricky5_violations(self):
        rep = nice_basis_check(t5())
        assert not rep.ok
        assert rep.multiple_targets == (((0, 1), (2, 3)),)
        assert rep.overlapping_pairs == (((0, 2), (0, 3), 4),)

    def test_filiform_not_nice(self):
        # (0, i) pairs share targets in a chain but overlap in index 0
        rep = nice_basis_check(corpus("filiform", 5).bracket)
        assert rep.ok  # distinct targets, pairs share index 0 but no target clash


class TestOrbitSample:
    def test_h3_every_sample_at_vertex(self):
        s = orbit_sample("DiagPositive", h(3), count=6, seed=7)
        assert len(s.points) == 6
        target = np.array([-1.0, -1.0, 1.0])
        assert np.abs(s.diagonals() - target).max() < 1e-10
        s.verify(h(3))

    def test_determinism(self):
        a = orbit_sample("DiagPositive", t5(), count=4, seed=5)
        b = orbit_sample("DiagPositive", t5(), count=4, seed=5)
        for (g1, m1), (g2, m2) in zip(a.points, b.points):
            assert np.array_equal(g1, g2)
            assert np.array_equal(m1.matrix, m2.matrix)
        c = orbit_sample("DiagPositive", t5(), count=4, seed=6)
        assert not np.array_equal(a.points[0][0], c.points[0][0])

    def test_tricky5_diagonal_orbit_relations(self):
        s = orbit_sample("DiagPositive", t5(), count=12, seed=7)
        rows = t5_coordinate_rows(s)
        assert tuple(sorted(t5().constants)) == T5_TRIPLES
        assert rows[:, -1].max() < 1e-12  # support never leaves the pattern
        a, b, c, d = rows[:, 0], rows[:, 1], rows[:, 2], rows[:, 3]
        assert np.abs(a + b + c + d - 1.0).max() < 1e-9
        assert np.abs(a * b - c * d).max() < 1e-9
        assert np.abs(a * c - b * d).max() < 1e-9

    def test_tricky5_torus_centralizer_relations(self):
        s = orbit_sample("TorusCentralizer", t5(), count=12, seed=7)
        rows = t5_coordinate_rows(s)
        a, b, c, d = rows[:, 0], rows[:, 1], rows[:, 2], rows[:, 3]
        assert rows[:, -1].max() < 1e-12
        assert np.abs(a + b + c + d - 1.0).max() < 1e-9
        assert np.abs(a * b - c * d).max() < 1e-9
        # the bigger group genuinely escapes the small-orbit relation
        assert np.abs(a * c - b * d).max() > 1e-6

    def test_derivation_centralizer_blocks(self):
        D = np.diag([1.0, 1.0, 2.0, 2.0, 3.0])
        s = orbit_sample("DerivationCentralizer", t5(), count=6, seed=3,
                         derivation=D)
        assert len(s.points) == 6
        assert max(mv.offdiagonal_max() for _, mv in s.points) < 1e-10
        # elements commute with D: block structure respected
        for g, _ in s.points:
            assert np.abs(g @ D - D @ g).max() < 1e-9

    def test_derivation_centralizer_requires_derivation(self):
        with pytest.raises(PreconditionError):
            orbit_sample("DerivationCentralizer", t5(), count=2, seed=1)
        with pytest.raises(PreconditionError):
            orbit_sample("DerivationCentralizer", t5(), count=2, seed=1,
                         derivation=np.diag([1.0, 2.0, 3.0, 4.0, 5.0]))

    def test_invalid_tag(self):
        with pytest.raises(PreconditionError):
            orbit_sample("FullLinear", t5(), count=2, seed=1)

    def test_moment_values_are_diagonal(self):
        for tag in ("DiagPositive", "TorusCentralizer"):
            s = orbit_sample(tag, t5(), count=4, seed=9)
            assert max(mv.offdiagonal_max() for _, mv in s.points) < 1e-10


def lands(fun):
    return np.abs(fun).max() <= 1e-11


# -- the per-draw reference solver ------------------------------------------
#
# _trf.trf_stack as it ran before its solves were stacked: one generator
# per solve, which yields ("f", x) or ("j", x) and is sent the residual or
# the Jacobian at x, on np.dot products and scipy.linalg.svd.  Each row of
# trf_stack must take the bits of trf_solve on that row alone.

def ref_norm(v):
    return math.sqrt(sum(t * t for t in v))


def ref_phi(alpha, suf, s2, delta):
    sq = slope = 0.0
    for u, t in zip(suf, s2):
        d = t + alpha
        q = u / d
        sq += q * q
        slope += q * q / d
    p_norm = math.sqrt(sq)
    return p_norm - delta, -slope / p_norm


def ref_svd_terms(J, f):
    m, n = J.shape
    U, s, Vt = svd(J, full_matrices=False)
    V, uf = Vt.T, U.T.dot(f)
    full_rank = m >= n and s[-1] > np.finfo(float).eps * m * s[0]
    s_list = s.tolist()
    return (V, [t * u for t, u in zip(s_list, uf.tolist())], [t * t for t in s_list],
            -V.dot(uf / s) if full_rank else None)


def ref_trust_region_step(terms, delta, alpha):
    V, suf, s2, gauss_newton = terms
    full_rank = gauss_newton is not None
    if full_rank and np.linalg.norm(gauss_newton) <= delta:
        return gauss_newton, 0.0
    alpha_upper = ref_norm(suf) / delta
    if full_rank:
        phi, slope = ref_phi(0.0, suf, s2, delta)
        alpha_lower = -phi / slope
    else:
        alpha_lower = 0.0
    if not full_rank and alpha == 0:
        alpha = max(0.001 * alpha_upper, (alpha_lower * alpha_upper) ** 0.5)
    for _ in range(10):
        if alpha < alpha_lower or alpha > alpha_upper:
            alpha = max(0.001 * alpha_upper, (alpha_lower * alpha_upper) ** 0.5)
        phi, slope = ref_phi(alpha, suf, s2, delta)
        if phi < 0:
            alpha_upper = alpha
        ratio = phi / slope
        alpha_lower = max(alpha_lower, alpha - ratio)
        alpha -= (phi + delta) * ratio / delta
        if abs(phi) < 0.01 * delta:
            break
    p = -V.dot([u / (t + alpha) for u, t in zip(suf, s2)])
    p *= delta / np.linalg.norm(p)
    return p, alpha


def ref_update_radius(delta, actual, predicted, step_norm, bound_hit):
    if predicted > 0:
        ratio = actual / predicted
    elif predicted == actual == 0:
        ratio = 1
    else:
        ratio = 0
    if ratio < 0.25:
        delta = 0.25 * step_norm
    elif ratio > 0.75 and bound_hit:
        delta *= 2.0
    return delta, ratio


def trf_steps(x0, ftol, xtol, max_nfev):
    x = np.array(x0, dtype=float)
    f = yield "f", x
    nfev = 1
    if not np.all(np.isfinite(f)):
        return _trf.TrfResult(x, f, nfev, 0)
    J = yield "j", x
    njev = 1
    cost = 0.5 * np.dot(f, f)
    g = J.T.dot(f)
    delta = float(np.linalg.norm(x)) or 1.0
    alpha = 0.0
    converged = False
    while not converged and nfev < max_nfev:
        terms = ref_svd_terms(J, f)
        actual = -1
        try:
            while actual <= 0 and nfev < max_nfev:
                step, alpha = ref_trust_region_step(terms, delta, alpha)
                Js = J.dot(step)
                predicted = -(0.5 * np.dot(Js, Js) + np.dot(step, g))
                x_new = x + step
                f_new = yield "f", x_new
                nfev += 1
                step_norm = math.sqrt(step.dot(step))
                if not np.all(np.isfinite(f_new)):
                    delta = 0.25 * step_norm
                    continue
                cost_new = 0.5 * np.dot(f_new, f_new)
                actual = cost - cost_new
                new_delta, ratio = ref_update_radius(delta, actual, predicted,
                                                     step_norm, step_norm > 0.95 * delta)
                converged = (actual < ftol * cost and ratio > 0.25
                             or step_norm < xtol * (xtol + np.linalg.norm(x)))
                if converged:
                    break
                alpha *= delta / new_delta
                delta = new_delta
        except ZeroDivisionError:
            return _trf.TrfResult(x, f, max_nfev, njev)
        if actual > 0:
            x, f, cost = x_new, f_new, cost_new
            J = yield "j", x
            njev += 1
            g = J.T.dot(f)
    return _trf.TrfResult(x, f, nfev, njev)


def trf_solve(fun, jac, x0, ftol, xtol, max_nfev):
    """Minimise |fun(x)|^2 / 2 from x0, answering the requests of
    trf_steps one at a time."""
    steps = trf_steps(x0, ftol, xtol, max_nfev)
    try:
        kind, x = next(steps)
        while True:
            kind, x = steps.send(fun(x) if kind == "f" else jac(x))
    except StopIteration as done:
        return done.value


def steering_state(C, g):
    """(nu, |nu|^2, m) for nu = g . C, one element at a time."""
    nu = act_tensor(C, g)
    norm = float(np.vdot(nu, nu))
    return nu, norm, gram_difference(nu) / norm


def steering_jacobian(C, g0, blocks, x, state=None):
    """The Jacobian of the steering residual at one point x, where
    `state` is steering_state there when the caller has it: the
    single-point reference for moment._steering_jacobians."""
    n = C.shape[-1]
    nu, norm, m = state or steering_state(C, _steered(g0, blocks, x))
    L = _exp_directions(x, blocks, n)
    Lt = np.swapaxes(L, -1, -2)
    dnu = (nu.reshape(n * n, n) @ Lt).reshape(-1, n, n, n)
    dnu -= (Lt @ nu.reshape(n, n * n)).reshape(-1, n, n, n)
    dnu -= np.swapaxes((np.swapaxes(nu, 1, 2).reshape(n * n, n) @ L)
                       .reshape(-1, n, n, n), 2, 3)
    B = gram_difference(dnu, nu)
    inner = dnu.reshape(len(L), -1) @ nu.ravel()
    dm = (B + np.swapaxes(B, -1, -2) - 2.0 * inner[:, None, None] * m) / norm
    iu, ju = np.triu_indices(n, 1)
    return dm[:, iu, ju].T


def steering_functions(C, g0, blocks, poisoned=None):
    """The steering residual from g0 and its Jacobian, one point at a
    time; a singular element gives a NaN residual.  The Jacobian at the
    point of the latest residual call reuses that call's state.  With
    `poisoned(g0)` true the residual at x = 0 is NaN, so that the first
    attempt fails."""
    iu = np.triu_indices(C.shape[-1], 1)
    last = [None, None]

    def resid(x):
        if poisoned is not None and not x.any() and poisoned(g0):
            return np.full(len(iu[0]), np.nan)
        try:
            state = steering_state(C, _steered(g0, blocks, x))
        except np.linalg.LinAlgError:
            return np.full(len(iu[0]), np.nan)
        last[:] = x, state
        return state[2][iu]

    def jac(x):
        return steering_jacobian(C, g0, blocks, x, last[1] if last[0] is x else None)

    return resid, jac


def steer_to_diagonal(C, g0, blocks, rng, poisoned=None):
    """Steering of one draw: g0 itself when it lands at x = 0, else the
    first of three trf_solve attempts that lands, from x = 0 and then
    from two random x; None when none does."""
    size = sum(len(blk) ** 2 for blk in blocks)
    resid, jac = steering_functions(C, g0, blocks, poisoned)
    if lands(resid(np.zeros(size))):
        return g0
    for attempt in range(3):
        x0 = np.zeros(size) if attempt == 0 else 0.3 * rng.standard_normal(size)
        with np.errstate(invalid="ignore", divide="ignore"):
            res = trf_solve(resid, jac, x0, ftol=3e-16, xtol=3e-16, max_nfev=300)
        if lands(res.fun):
            return _steered(g0, blocks, res.x)
    return None


def sequential_sample(tag, b, count, seed, derivation=None, poisoned=None):
    """orbit_sample one draw at a time, each draw steered to the end
    before the next is drawn: the reference that the lockstep windows
    must match byte for byte.  Returns the (g, moment matrix) pairs."""
    blocks = _group_blocks(tag, b, derivation)
    rng = generator(seed, moment._TAG_STREAM[tag])
    C, n = b.tensor(), b.dim
    points = []
    budget = 80 * count
    while len(points) < count:
        budget -= 1
        if budget < 0:
            raise NumericalError(
                "steering onto the diagonal moment slice kept failing; "
                "the orbit may have no diagonal moment values")
        g0 = moment._draw_block_element(rng, blocks, n)
        g = steer_to_diagonal(C, g0, blocks, rng, poisoned)
        if g is not None:
            points.append((g, moment_map(act(BasisChange(g), b)).matrix))
    return points


def recorded_solves(monkeypatch, run):
    """Call run() and return every draw that moment._steer steered
    meanwhile, in call order: (blocks, g0, x0, check_start, steered
    element or None), up to the first draw of each call that does not
    land, since the draws after it are cut short and dropped."""
    solves = []
    steer = moment._steer

    def recording(C, blocks, G0, X0, check_start=False):
        out = steer(C, blocks, G0, X0, check_start)
        solves.extend((blocks, g0, x0, check_start, g) for g0, x0, g in zip(G0, X0, out))
        return out

    monkeypatch.setattr(moment, "_steer", recording)
    run()
    monkeypatch.setattr(moment, "_steer", steer)
    return solves


def reference_attempt(b, g0, blocks, x0, check_start, tol=1e-11):
    """One steering solve by least_squares taking its Jacobian by finite
    differences: the residual, parametrisation and tolerances of
    moment._steer, with a full-matrix expm for each element.  Returns
    the steered element or None."""
    n = b.dim
    C = b.tensor()
    iu = np.triu_indices(n, 1)

    def element(x):
        return expm(unpack_blocks(x, blocks, n)) @ g0

    def resid(x):
        return _acted_moment_matrix(C, element(x))[iu]

    if check_start and np.abs(resid(x0)).max() <= tol:
        return g0
    with np.errstate(invalid="ignore", divide="ignore"):
        res = least_squares(resid, x0, xtol=3e-16, ftol=3e-16, gtol=None,
                            max_nfev=300)
    return element(res.x) if np.abs(resid(res.x)).max() <= tol else None


# (group tag, derivation, size of the largest centralizer block)
STEERING_GROUPS = [
    ("DiagPositive", None, 1),
    ("TorusCentralizer", None, 2),
    ("DerivationCentralizer", np.diag([1.0, 0.0, 1.0, 1.0, 2.0]), 3),
]


def _steering_stack(tag, derivation, seed, rows):
    """A tricky5 stack for `tag`: C, blocks, `rows` draws and the points
    x (the first two zero, the others random) the draws are steered from."""
    b = t5()
    blocks = _group_blocks(tag, b, derivation)
    size = sum(len(blk) ** 2 for blk in blocks)
    rng = np.random.default_rng(seed)
    G0, X = [], []
    for trial in range(rows):
        G0.append(_draw_block_element(rng, blocks, b.dim))
        X.append(np.zeros(size) if trial < 2 else 0.3 * rng.standard_normal(size))
    return b.tensor(), blocks, np.array(G0), np.array(X)


class TestSteering:
    @pytest.mark.parametrize("tag,derivation,largest", STEERING_GROUPS,
                             ids=[tag for tag, _, _ in STEERING_GROUPS])
    def test_jacobian_matches_central_differences(self, tag, derivation, largest):
        C, blocks, G0, X = _steering_stack(tag, derivation, 41, 6)
        assert max(len(blk) for blk in blocks) == largest
        n, size = C.shape[-1], X.shape[1]
        iu = np.triu_indices(n, 1)
        step = 1e-6
        Js = _steering_jacobians(C, blocks, X, _steering_residuals(C, G0, blocks, X)[1])
        assert Js.shape == (6, len(iu[0]), size)
        for g0, x, J in zip(G0, X, Js):
            for k in range(size):
                e = np.zeros(size)
                e[k] = step
                central = (_acted_moment_matrix(C, _steered(g0, blocks, x + e))[iu]
                           - _acted_moment_matrix(C, _steered(g0, blocks, x - e))[iu])
                assert np.abs(J[:, k] - central / (2 * step)).max() \
                    <= 1e-6 * np.abs(J).max()

    @pytest.mark.parametrize("tag,derivation,largest", STEERING_GROUPS,
                             ids=[tag for tag, _, _ in STEERING_GROUPS])
    def test_stacked_rows_match_single_point_reference(self, tag, derivation, largest):
        """Each row of a stacked residual and Jacobian has the bits of the
        one-point reference, and a singular element in the stack is a NaN
        row that leaves the other rows' bits alone."""
        C, blocks, G0, X = _steering_stack(tag, derivation, 43, 7)
        for singular in (False, True):
            if singular:
                G0[4] = 0.0
            resid, states = _steering_residuals(C, G0, blocks, X)
            J = _steering_jacobians(C, blocks, X, states)
            for k, (g0, x) in enumerate(zip(G0, X)):
                fun, jac = steering_functions(C, g0, blocks)
                assert resid[k].tobytes() == fun(x).tobytes()
                if singular and k == 4:
                    assert np.isnan(resid[k]).all()
                else:
                    assert J[k].tobytes() == jac(x).tobytes()

    @pytest.mark.parametrize("seeds,count,solves", [(range(17, 27), 8, 80), ((123,), 40, 40)],
                             ids=["seeds17-26", "seed123"])
    def test_same_draws_as_finite_difference_reference(self, monkeypatch,
                                                       seeds, count, solves):
        """Every draw the lockstep steers, replayed from its start by
        least_squares with a finite-difference Jacobian, lands exactly
        when it lands, within 1e-5 of its moment diagonal."""
        b = t5()
        runs = recorded_solves(monkeypatch, lambda: [
            orbit_sample("TorusCentralizer", b, count=count, seed=seed) for seed in seeds])
        assert len(runs) == solves
        for blocks, g0, x0, check_start, g in runs:
            want = reference_attempt(b, g0, blocks, x0, check_start)
            assert (g is None) == (want is None)
            if g is not None:
                diff = (moment_map(act(BasisChange(g), b)).diagonal
                        - moment_map(act(BasisChange(want), b)).diagonal)
                assert np.abs(diff).max() < 1e-5


def _crc(a, modulus):
    """A fixed pseudo-random residue of the bytes of a."""
    return zlib.crc32(np.ascontiguousarray(a).tobytes()) % modulus


def _poison_first_attempts(monkeypatch, poisoned):
    """Make the steering residual NaN at x = 0 for the draws g0 with
    poisoned(g0), as steering_functions(.., poisoned) does, so that
    their first attempt fails and their random restarts run."""
    residuals = moment._steering_residuals

    def poisoning(C, G0, blocks, X):
        resid, states = residuals(C, G0, blocks, X)
        rows = [k for k, (g0, x) in enumerate(zip(G0, X)) if not x.any() and poisoned(g0)]
        resid = resid.copy()
        resid[rows] = np.nan
        return resid, states

    monkeypatch.setattr(moment, "_steering_residuals", poisoning)


def _singular_trials(monkeypatch, mixed):
    """Make exp(A(x)) vanish, so that the trial element is singular, at a
    fixed fifth of the nonzero points x; the size of every stack that
    mixes such rows with regular ones goes to `mixed`."""
    factors = moment._metric_factors

    def singular(A, blocks, n):
        h = factors(A, blocks, n)
        rows = [k for k, x in enumerate(np.asarray(A)) if x.any() and _crc(x, 5) == 0]
        h[rows] = 0.0
        if 0 < len(rows) < len(h):
            mixed.append(len(h))
        return h

    monkeypatch.setattr(moment, "_metric_factors", singular)


def _draws_that_fail(monkeypatch, drawn, fail):
    """Record every element drawn in `drawn`; fail(g0) says whether a draw
    is unsteerable (NaN), raises NumericalError, or stands (None)."""
    draw = moment._draw_block_element

    def failing(rng, blocks, n):
        g0 = draw(rng, blocks, n)
        drawn.append(g0)
        how = fail(g0)
        if how == "raise":
            raise NumericalError("could not draw a well-conditioned group element")
        return g0 * np.nan if how == "nan" else g0

    monkeypatch.setattr(moment, "_draw_block_element", failing)


D_PAIRS = np.diag([1.0, 1.0, 2.0, 2.0, 3.0])    # centralizer blocks 2, 2, 1
D_TRIPLE = np.diag([1.0, 0.0, 1.0, 1.0, 2.0])   # centralizer blocks 3, 1, 1


def _outcome(run):
    try:
        return [(g.tobytes(), m.tobytes()) for g, m in run()]
    except NumericalError as err:
        return str(err)


class TestLockstepSteering:
    """orbit_sample steers its draws in lockstep windows; every sample must
    have the bytes of sequential_sample, which steers one draw at a time."""

    # (id, group tag, derivation, count, seed, hook, fewest windows whose
    # first failing draw is not their last, fewest random restarts)
    CASES = [
        ("DiagPositive", "DiagPositive", None, 12, 3, None, 0, 0),
        ("TorusCentralizer", "TorusCentralizer", None, 16, 5, None, 0, 0),
        # the 7th of a window of 8 fails from x = 0, its first restart fails
        # too, and the 8th is dropped and drawn again
        ("DerivationCentralizer-pairs", "DerivationCentralizer", D_PAIRS, 8, 12, None, 1, 2),
        # windows of one, and two random restarts
        ("DerivationCentralizer-triple", "DerivationCentralizer", D_TRIPLE, 8, 20, None, 0, 2),
        ("first-attempts-fail", "TorusCentralizer", None, 12, 7, "poison", 4, 4),
        ("singular-trials", "TorusCentralizer", None, 8, 9, "singular", 0, 0),
        # two points kept, then the budget runs out
        ("budget-spent", "DiagPositive", None, 3, 4, "nan", 144, 476),
        # raising draws are drawn and dropped before one is reached
        ("draw-raises", "TorusCentralizer", None, 24, 2, "raise", 4, 8),
    ]

    @pytest.mark.parametrize("tag,derivation,count,seed,hook,rewinds,restarts",
                             [case[1:] for case in CASES], ids=[case[0] for case in CASES])
    def test_same_bytes_as_sequential_driver(self, monkeypatch, tag, derivation, count,
                                             seed, hook, rewinds, restarts):
        b = t5()
        poisoned, mixed, drawn = None, [], []
        if hook == "poison":
            poisoned = lambda g0: _crc(g0, 3) == 0   # noqa: E731
            _poison_first_attempts(monkeypatch, poisoned)
        elif hook == "singular":
            _singular_trials(monkeypatch, mixed)
        elif hook == "nan":
            _draws_that_fail(monkeypatch, drawn, lambda g0: None if _crc(g0, 97) == 0 else "nan")
        elif hook == "raise":
            _draws_that_fail(monkeypatch, drawn, lambda g0: (
                "raise" if _crc(g0, 23) == 0 else "nan" if _crc(g0, 7) == 0 else None))
        windows = []
        steer = moment._steer

        def watching(C, blocks, G0, X0, check_start=False):
            out = steer(C, blocks, G0, X0, check_start)
            windows.append((check_start, len(G0), len(out), out[-1] is None if out else False))
            return out

        monkeypatch.setattr(moment, "_steer", watching)
        got = _outcome(lambda: [(g, mv.matrix) for g, mv in orbit_sample(
            tag, b, count=count, seed=seed, derivation=derivation).points])
        last_drawn = drawn[-1].tobytes() if drawn else None
        if hook == "raise":
            assert sum(_crc(g0, 23) == 0 for g0 in drawn) > 1
        drawn.clear()
        want = _outcome(lambda: sequential_sample(tag, b, count, seed, derivation, poisoned))
        assert got == want
        assert (drawn[-1].tobytes() if drawn else None) == last_drawn
        if hook in ("nan", "raise"):
            assert isinstance(got, str)   # the sample raised
        else:
            assert len(got) == count
        cut = sum(1 for start, size, ran, failed in windows if start and failed and ran < size)
        assert cut >= rewinds
        assert sum(1 for start, *_ in windows if not start) >= restarts
        if hook == "singular":
            assert mixed

    @staticmethod
    def evaluator_counts(monkeypatch, run):
        """(calls, rows) of the stacked residual and of the stacked
        Jacobian while run() runs."""
        counts = {}

        def counting(name, points):
            evaluate = getattr(moment, name)

            def counted(*args):
                calls, rows = counts.get(name, (0, 0))
                counts[name] = calls + 1, rows + len(args[points])
                return evaluate(*args)
            monkeypatch.setattr(moment, name, counted)

        counting("_steering_residuals", 3)
        counting("_steering_jacobians", 2)
        run()
        return counts["_steering_residuals"], counts["_steering_jacobians"]

    def test_evaluator_calls_of_a_cone_sample(self, monkeypatch):
        """The 48 draws of the cone command's sample share stacked
        evaluator calls, the zero check is each solve's first residual,
        and each round answers a residual request and the Jacobian request
        that follows it: one draw at a time, the same sample took 3403
        residual and 1379 Jacobian calls, one row each."""
        (f_calls, f_rows), (j_calls, j_rows) = self.evaluator_counts(
            monkeypatch, lambda: orbit_sample("TorusCentralizer", t5(), count=48, seed=5))
        # measured: 76 calls over 3355 rows and 76 calls over 1379 rows;
        # a zero check apart from the solve's first residual adds 48 rows,
        # and Jacobian requests in rounds of their own add about 30 calls
        assert f_calls <= 80 and f_rows <= 3370
        assert j_calls <= 80 and j_rows <= 1390

    def test_draws_after_a_failure_stop_at_once(self, monkeypatch):
        """A draw that fails at its start ends the solves of the draws
        after it in the same round: each of them would take about 70 more
        residual rows."""
        _poison_first_attempts(monkeypatch, lambda g0: _crc(g0, 3) == 0)
        (_, f_rows), (_, j_rows) = self.evaluator_counts(
            monkeypatch, lambda: orbit_sample("TorusCentralizer", t5(), count=12, seed=7))
        assert f_rows <= 850 and j_rows <= 345   # measured: 843 and 339

    def test_a_failure_at_a_jacobian_answer_ends_later_draws(self, monkeypatch):
        """A solve that ends off the slice right after its Jacobian answer
        ends the solves of the later draws in the same round, so they take
        no further residual rows."""
        C, blocks, G0, X = _steering_stack("TorusCentralizer", None, 41, 3)
        made = []

        class Solve(_trf._Solve):
            """The first solve asks for the Jacobian at its start and ends
            there, off the slice; the others ask for the residual at the same
            point again and again (a zero step)."""
            __slots__ = ("first",)

            def __init__(self, *args):
                super().__init__(*args)
                self.first = not made
                made.append(self)

            def take_residual(self, finite, cost):
                self.nfev += 1
                self.step = (np.zeros(X.shape[1]), 0.0, False)
                return "j" if self.first else "f"

            def take_jacobian(self, J, f, x_norm, finite):
                self.njev += 1

        monkeypatch.setattr(_trf, "_Solve", Solve)
        out = []
        (_, f_rows), (_, j_rows) = self.evaluator_counts(
            monkeypatch, lambda: out.append(moment._steer(C, blocks, G0, X)))
        assert out == [[None]] and (f_rows, j_rows) == (3, 1)


def _numpy_sums(monkeypatch):
    """Give the trust-region port, both trf_stack and the reference
    trf_solve, the numpy reductions of scipy's solve_lsq_trust_region in
    place of their Python-float sums."""
    def phi(alpha, suf, s2, delta):
        suf, denom = np.array(suf), np.array(s2) + alpha
        p_norm = np.linalg.norm(suf / denom)
        return p_norm - delta, -np.sum(suf ** 2 / denom ** 3) / p_norm

    monkeypatch.setattr(_trf, "_norm", np.linalg.norm)
    monkeypatch.setattr(_trf, "_phi", phi)
    monkeypatch.setitem(globals(), "ref_norm", np.linalg.norm)
    monkeypatch.setitem(globals(), "ref_phi", phi)


def _paired_solves(monkeypatch):
    """Every steering solve of two tricky5 samples, recorded from the
    lockstep and replayed by the port's sequential driver trf_solve and by
    scipy.optimize.least_squares on the same residual, Jacobian and x0: a
    list of (x0, lockstep element or None, port result, scipy result).  A
    draw that lands at x = 0 takes no solve.  The DerivationCentralizer
    sample (a 3 x 3 block) restarts some draws from a random x0."""
    b = t5()
    C = b.tensor()
    runs = []
    solves = recorded_solves(monkeypatch, lambda: (
        orbit_sample("TorusCentralizer", b, count=6, seed=17),
        orbit_sample("DerivationCentralizer", b, count=8, seed=18, derivation=D_TRIPLE)))
    for blocks, g0, x0, check_start, g in solves:
        fun, jac = steering_functions(C, g0, blocks)
        if check_start and lands(fun(x0)):
            continue
        with np.errstate(invalid="ignore", divide="ignore"):
            got = trf_solve(fun, jac, x0, ftol=3e-16, xtol=3e-16, max_nfev=300)
            want = least_squares(fun, x0, jac=jac, ftol=3e-16, xtol=3e-16, gtol=None,
                                 max_nfev=300)
        runs.append((x0, g, got, want))
    assert len(runs) == 16
    return runs


class TestTrustRegionPort:
    def test_repeats_least_squares_with_numpy_sums(self, monkeypatch):
        _numpy_sums(monkeypatch)
        runs = _paired_solves(monkeypatch)
        assert any(x0.any() and lands(got.fun) for x0, _, got, _ in runs)   # a restart
        for _, g, got, want in runs:
            assert (g is not None) == lands(got.fun)
            assert (got.nfev, got.njev) == (want.nfev, want.njev)
            assert np.abs(got.x - want.x).max() <= 1e-12

    def test_python_sums_land_where_least_squares_lands(self, monkeypatch):
        """With its own Python-float sums the port may stop a few trials
        apart from scipy, since ftol = xtol = 3e-16 test rounding-level
        changes, but it lands on the diagonal slice exactly when scipy
        does."""
        runs = _paired_solves(monkeypatch)
        assert [g is not None for _, g, _, _ in runs] == [lands(got.fun) for _, _, got, _ in runs]
        assert [lands(got.fun) for _, _, got, _ in runs] == \
            [lands(want.fun) for _, _, _, want in runs]

    def test_singular_trial_is_a_rejected_step(self, monkeypatch):
        """A trial element act_tensor cannot invert is rejected like a
        non-finite residual: the radius drops to a quarter of the step,
        and steering still lands."""
        b = t5()
        blocks = _group_blocks("TorusCentralizer", b)
        size = sum(len(blk) ** 2 for blk in blocks)
        g0 = _draw_block_element(np.random.default_rng(5), blocks, b.dim)
        points = []
        factors = moment._metric_factors

        def singular_first_trial(A, blocks, n):
            points.extend(np.array(A))
            h = factors(A, blocks, n)
            if len(points) == 2:   # the first trial after x0
                h[:] = 0.0
            return h

        monkeypatch.setattr(moment, "_metric_factors", singular_first_trial)
        (g,) = moment._steer(b.tensor(), blocks, g0[None], np.zeros((1, size)),
                             check_start=True)
        assert g is not None
        assert moment_map(act(BasisChange(g), b)).offdiagonal_max() < 1e-10
        x0, first, second = points[:3]
        assert np.linalg.norm(second - x0) == pytest.approx(
            0.25 * np.linalg.norm(first - x0), rel=1e-12)

    def test_non_finite_start_returns_at_once(self):
        (res,) = _trf.trf_stack(lambda rows, X: np.full((len(X), 3), np.nan), None,
                                np.ones((1, 2)), ftol=3e-16, xtol=3e-16, max_nfev=300,
                                lands=lambda f: False)
        assert (res.nfev, res.njev) == (1, 0) and np.isnan(res.fun).all()

    def test_orbit_sampling_loads_no_scipy_optimize(self):
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parent.parent / "src")
        env["PYTHONPATH"] = os.pathsep.join(
            [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        code = ("import sys; from rnlie.corpus import corpus; "
                "from rnlie.moment import orbit_sample; "
                "orbit_sample('TorusCentralizer', corpus('tricky5').bracket, count=4, seed=17); "
                "print(sorted(m for m in sys.modules if m.startswith('scipy.optimize')))")
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"


_FIT_T = np.linspace(0.0, 1.0, 8)
_FIT_Y = 2.0 * np.exp(-1.3 * _FIT_T) + 0.05 * np.sin(7.0 * _FIT_T)
_ZERO_COLUMN = np.column_stack([np.linspace(-1.0, 2.0, 8), np.zeros(8), np.cos(np.arange(8.0))])


def _exp_fit(fence=None):
    """x0 exp(x1 t) + x2 - y, whose Jacobian has full column rank; with a
    fence, the residual is NaN where x1 < fence."""
    def fun(x):
        if fence is not None and x[1] < fence:
            return np.full(len(_FIT_T), np.nan)
        return x[0] * np.exp(x[1] * _FIT_T) + x[2] - _FIT_Y

    def jac(x):
        e = np.exp(x[1] * _FIT_T)
        return np.stack([e, x[0] * _FIT_T * e, np.ones_like(e)], axis=1)

    return fun, jac


def _zero_column(x):
    """A sin(x) - 1 with a zero column in A: one singular value of the
    Jacobian is exactly zero, and so is its term of s U^T f."""
    return _ZERO_COLUMN @ np.sin(x) - 1.0, _ZERO_COLUMN * np.cos(x)


# (id, fun, jac, x0), 8 residuals in 3 unknowns: each takes the branch of
# the method in its id
SOLVER_PROBLEMS = [
    ("gauss-newton", *_exp_fit(), [1.0, 0.0, 0.0]),
    ("gauss-newton-far", *_exp_fit(), [3.0, -2.0, 0.5]),
    ("non-finite-trials", *_exp_fit(fence=-1.0), [1.0, -0.9, 0.0]),
    ("non-finite-start", *_exp_fit(fence=0.0), [1.0, -0.5, 0.0]),
    ("zero-radius", lambda x: np.arange(1.0, 9.0), lambda x: np.zeros((8, 3)), [0.5, 0.5, 0.5]),
    # a start of infinite norm makes the first radius infinite and the
    # first alpha zero, where the zero term divides by zero
    ("pruning-guard", lambda x: _zero_column(x)[0], lambda x: _zero_column(x)[1],
     [1e308, 1e308, 1e308]),
    ("rank-deficient", lambda x: _zero_column(x)[0], lambda x: _zero_column(x)[1],
     [0.3, -0.2, 0.1]),
]


def _row_functions(funs, jacs):
    """fun and jac for trf_stack from each row's own functions."""
    latest = []

    def fun(rows, X):
        latest[:] = [(k, x) for k, x in zip(rows, X)]
        return np.array([funs[k](x) for k, x in latest])

    def jac(positions):
        return np.array([jacs[k](x) for k, x in (latest[i] for i in positions)])

    return fun, jac


def _traced(fun, jac, trace):
    """fun and jac for trf_stack that record each point asked of row k in
    trace[k], as ("f" or "j", the point's bytes)."""
    latest = []

    def traced_fun(rows, X):
        latest[:] = rows, X
        for k, x in zip(rows, X):
            trace[k].append(("f", x.tobytes()))
        return fun(rows, X)

    def traced_jac(positions):
        rows, X = latest
        for i in positions:
            trace[rows[i]].append(("j", X[i].tobytes()))
        return jac(positions)

    return traced_fun, traced_jac


def assert_rows_match(fun, jac, funs, jacs, X0, max_nfev):
    """Run trf_stack on the stacked fun and jac, and the reference
    trf_solve on each row's own funs[k] and jacs[k]: each row must ask for
    the same points and end with the same result, byte for byte.  Returns
    the results and the points each row asked."""
    traces = [[] for _ in X0]
    with np.errstate(all="ignore"):
        got = _trf.trf_stack(*_traced(fun, jac, traces), X0, ftol=3e-16, xtol=3e-16,
                             max_nfev=max_nfev, lands=lambda f: True)
    assert len(got) == len(X0)
    for k, (x0, res) in enumerate(zip(X0, got)):
        trace = []

        def f(x, k=k):
            trace.append(("f", x.tobytes()))
            return funs[k](x)

        def j(x, k=k):   # in the column-major layout trf_stack reads
            trace.append(("j", x.tobytes()))
            return np.asfortranarray(jacs[k](x))

        with np.errstate(all="ignore"):
            want = trf_solve(f, j, x0, ftol=3e-16, xtol=3e-16, max_nfev=max_nfev)
        assert traces[k] == trace
        assert (res.x.tobytes(), res.fun.tobytes(), res.nfev, res.njev) == \
            (want.x.tobytes(), want.fun.tobytes(), want.nfev, want.njev)
    return got, traces


class TestStackedSolver:
    """Each row of _trf.trf_stack against the per-draw reference trf_solve
    on that row alone."""

    @pytest.mark.parametrize("max_nfev", [300, 5])
    def test_rows_match_reference(self, monkeypatch, max_nfev):
        """Every branch of the method, on rows that end in different rounds,
        and with a budget that ends most of them."""
        gauss_newton = []
        step = _trf._trust_region_step

        def recording(terms, delta, alpha):
            out = step(terms, delta, alpha)
            gauss_newton.append(not out[2])
            return out

        monkeypatch.setattr(_trf, "_trust_region_step", recording)
        ids, funs, jacs, X0 = zip(*SOLVER_PROBLEMS)
        got, traces = assert_rows_match(*_row_functions(funs, jacs), funs, jacs,
                                        np.array(X0), max_nfev)
        res, trace = dict(zip(ids, got)), dict(zip(ids, traces))
        assert len({len(t) for t in traces}) > 3   # rows end in different rounds
        assert any(gauss_newton)
        assert res["non-finite-start"].njev == 0
        fenced = dict(zip(ids, funs))["non-finite-trials"]
        assert sum(not np.isfinite(fenced(np.frombuffer(x))).all()
                   for kind, x in trace["non-finite-trials"] if kind == "f") >= 2
        # the zero-radius exits: the start, its Jacobian and no trial
        for name in ("zero-radius", "pruning-guard"):
            assert res[name].nfev == max_nfev and len(trace[name]) == 2
        if max_nfev == 5:   # most rows run out, the fenced one on a non-finite trial
            assert sum(r.nfev == max_nfev for r in got) >= 5
            kind, x = trace["non-finite-trials"][-1]
            assert kind == "f" and not np.isfinite(fenced(np.frombuffer(x))).all()

    @pytest.mark.parametrize("tag,derivation,largest", STEERING_GROUPS,
                             ids=[tag for tag, _, _ in STEERING_GROUPS])
    def test_steering_rows_match_reference(self, tag, derivation, largest):
        """Steering solves on the stacked evaluators, against the one-point
        reference functions row by row."""
        C, blocks, G0, X0 = _steering_stack(tag, derivation, 47, 5)
        assert max(len(blk) for blk in blocks) == largest
        latest = []

        def fun(rows, X):
            resid, states = _steering_residuals(C, G0[rows], blocks, X)
            latest[:] = X, states
            return resid

        def jac(positions):
            X, states = latest
            return _steering_jacobians(C, blocks, X[positions],
                                       tuple(part[positions] for part in states))

        funs, jacs = zip(*(steering_functions(C, g0, blocks) for g0 in G0))
        _, traces = assert_rows_match(fun, jac, funs, jacs, X0, 300)
        assert len({len(t) for t in traces}) > 1

    def test_start_check_and_cut(self):
        """With check_start, a row whose first residual lands ends there.
        The first row that ends off `lands` ends the list, and the rows
        after it ask for nothing more."""
        ids, funs, jacs, X0 = zip(*SOLVER_PROBLEMS)
        X0 = np.array(X0)
        traces = [[] for _ in X0]
        fun, jac = _traced(*_row_functions(funs, jacs), traces)

        def near(f):   # rows 0 and 2 start within 1.5 of zero, row 1 does not
            return bool(np.isfinite(f).all() and np.abs(f).max() < 1.5)

        with np.errstate(all="ignore"):
            got = _trf.trf_stack(fun, jac, X0, ftol=3e-16, xtol=3e-16, max_nfev=300,
                                 lands=near, check_start=True)
        assert ids[3] == "non-finite-start" and len(got) == 4
        for k in (0, 2, 3):
            assert (got[k].nfev, got[k].njev, got[k].x.tobytes()) == (1, 0, X0[k].tobytes())
        assert near(got[0].fun) and near(got[2].fun) and not near(got[3].fun)
        assert [len(t) for t in traces[4:]] == [1, 1, 1]
        trace = []
        with np.errstate(all="ignore"):
            want = trf_solve(lambda x: trace.append(x.tobytes()) or funs[1](x),
                             lambda x: np.asfortranarray(jacs[1](x)), X0[1],
                             ftol=3e-16, xtol=3e-16, max_nfev=300)
        assert near(want.fun) and len(trace) > 1
        assert [x for kind, x in traces[1] if kind == "f"] == trace
        assert (got[1].x.tobytes(), got[1].fun.tobytes(), got[1].nfev, got[1].njev) == \
            (want.x.tobytes(), want.fun.tobytes(), want.nfev, want.njev)

    def test_zero_terms_at_nan_alpha(self):
        """Where alpha is NaN the secular sums take the zero terms too: with
        every term zero, the nonzero ones alone would divide by a zero norm,
        while the full sums give the NaN step of the reference."""
        J, f = np.array([[2.0, 0.0], [0.0, 0.0], [0.0, 0.0]]), np.array([0.0, 1.0, 1.0])
        w, alpha, scaled = _trf._trust_region_step(_trf._svd_terms(J, f), math.nan, 0.0)
        p, want = ref_trust_region_step(ref_svd_terms(J, f), math.nan, 0.0)
        assert scaled and np.isnan(w).all() and np.isnan(p).all()
        assert math.isnan(alpha) and math.isnan(want)


# 2 x 2 blocks [[a, b], [c, d]] by the sign and size of delta^2 = ((a - d)/2)^2 + bc
BLOCK2_CASES = {
    "delta2>0": [[0.3, 1.2], [0.7, -0.5]],
    "delta2<0": [[0.2, -1.5], [0.9, 0.4]],
    "|delta|<1e-6": [[0.4 + 3e-7, 2e-7], [1e-7, 0.4 - 3e-7]],
    "delta=0": [[1.0, 1.0], [0.0, 1.0]],
    "delta2=1": [[1.0, 0.0], [0.0, -1.0]],
    "delta2 just below 1": [[0.5, 0.75 - 1e-12], [1.0, -0.5]],
    "large tau": [[40.3, 0.8], [-0.6, 39.7]],
    "large delta2>0": [[3.0, 4.0], [5.0, -2.0]],
    "large delta2<0": [[0.0, -6.0], [6.0, 0.0]],
}


def _block_triangular(A, E):
    M = np.zeros((4, 4))
    M[:2, :2] = M[2:, 2:] = A
    M[:2, 2:] = E
    return M


def _van_loan(A, E):
    """dexp_A(E) exp(-A) from expm of the block-triangular [[A, E], [0, A]]."""
    X = expm(_block_triangular(A, E))
    return X[:2, 2:] @ np.linalg.inv(X[:2, :2])


def _mp_expm(A, E=None):
    """exp(A), or with E the Van Loan dexp_A(E) exp(-A), at 50 digits and
    rounded to floats."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        if E is None:
            X = mpmath.expm(mpmath.matrix(A.tolist()))
        else:
            Y = mpmath.expm(mpmath.matrix(_block_triangular(A, E).tolist()))
            X = Y[0:2, 2:4] * mpmath.inverse(Y[0:2, 0:2])
        return np.array(X.tolist(), dtype=float)


class TestBlock2Exp:
    """The closed-form exp and dexp of a 2 x 2 block against 50-digit
    references, and against scipy's expm and the Van Loan construction,
    which are themselves off by up to 3e-13 (large tau) and 4e-13 (large
    delta)."""

    @pytest.mark.parametrize("A", BLOCK2_CASES.values(), ids=BLOCK2_CASES.keys())
    def test_exp(self, A):
        A = np.array(A)
        got = _metric_factors(A.ravel()[None], [(0, 1)], 2)[0]
        want = _mp_expm(A)
        scale = np.abs(want).max()
        assert np.abs(got - want).max() <= 1e-15 * scale
        assert np.abs(got - expm(A)).max() <= 1e-12 * scale

    @pytest.mark.parametrize("A", BLOCK2_CASES.values(), ids=BLOCK2_CASES.keys())
    def test_dexp(self, A):
        A = np.array(A)
        L = _exp_directions(A.ravel(), [(0, 1)], 2)
        for t, E in enumerate(np.eye(4).reshape(4, 2, 2)):
            want = _mp_expm(A, E)
            scale = np.abs(want).max()
            assert np.abs(L[t] - want).max() <= 1e-15 * scale
            assert np.abs(L[t] - _van_loan(A, E)).max() <= 1e-12 * scale

    def test_rows_of_a_stack_keep_their_bits(self):
        """The metric search and orbit steering exponentiate stacks."""
        blocks = [(0, 2), (1, 3), (4,)]
        xs = 0.8 * np.random.default_rng(4).standard_normal((25, 9))
        xs[3, :4] = [40.3, 0.8, -0.6, 39.7]
        xs[7, :4] = [1e3, 0.0, 0.0, 1e3]   # overflows
        h = _metric_factors(xs, blocks, 5)
        assert np.isnan(h[7][np.ix_((0, 2), (0, 2))]).all()
        for k in range(len(xs)):
            assert h[k].tobytes() == _metric_factors(xs[k:k + 1], blocks, 5)[0].tobytes()


class TestClosureFaces:
    def test_h3_single(self):
        faces = closure_faces(h(3))
        assert len(faces) == 1
        assert faces[0].bracket.constants == h(3).constants

    def test_h5_three(self):
        faces = closure_faces(h(5))
        assert len(faces) == 3
        sizes = sorted(len(f.triples) for f in faces)
        assert sizes == [1, 1, 2]

    def test_tricky5_needs_override(self):
        with pytest.raises(PreconditionError):
            closure_faces(t5())
        faces = closure_faces(t5(), require_nice=False)
        assert len(faces) == 9
        sizes = sorted(len(f.triples) for f in faces)
        assert sizes == [1, 1, 1, 1, 2, 2, 2, 2, 4]
        from rnlie.brackets import validate_jacobi
        for f in faces:
            assert validate_jacobi(f.bracket) == 0
