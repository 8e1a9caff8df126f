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
from rnlie.cone import SAMPLE_COUNT
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


def f5_sheared():
    """filiform:5 acted on by 1 + E_13, a basis that is not nice: its
    DiagPositive moment values have two off-diagonal entries to steer
    away, where those of filiform:5 are all diagonal."""
    g = [[F(int(i == j or (i, j) == (1, 3))) for j in range(5)] for i in range(5)]
    return act(BasisChange(g), corpus("filiform", 5).bracket)


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


D_PAIRS = np.diag([1.0, 1.0, 2.0, 2.0, 3.0])    # centralizer blocks 2, 2, 1
D_TRIPLE = np.diag([1.0, 0.0, 1.0, 1.0, 2.0])   # centralizer blocks 3, 1, 1

# (id, bracket, group tag, derivation) of the centralizer groups, whose
# draws are rotated onto the slice
ROTATED_GROUPS = [
    ("tricky5", t5, "TorusCentralizer", None),
    ("heisenberg5", lambda: h(5), "TorusCentralizer", None),
    ("filiform5", lambda: corpus("filiform", 5).bracket, "TorusCentralizer", None),
    ("tricky5-pairs", t5, "DerivationCentralizer", D_PAIRS),
    ("tricky5-triple", t5, "DerivationCentralizer", D_TRIPLE),
]


class TestRotatedDraws:
    """TorusCentralizer and DerivationCentralizer draws reach the diagonal
    slice by one rotation inside the group's blocks."""

    @pytest.mark.parametrize("bracket,tag,derivation", [case[1:] for case in ROTATED_GROUPS],
                             ids=[case[0] for case in ROTATED_GROUPS])
    def test_moment_is_exactly_block_diagonal(self, bracket, tag, derivation):
        b = bracket()
        blocks = _group_blocks(tag, b, derivation)
        block_of = {i: k for k, blk in enumerate(blocks) for i in blk}
        off = np.array([[block_of[r] != block_of[s] for s in range(b.dim)]
                        for r in range(b.dim)])
        rng = np.random.default_rng(29)
        C = b.tensor()
        for _ in range(20):
            m = gram_difference(act_tensor(C, _draw_block_element(rng, blocks, b.dim)))
            assert (m[off] == 0.0).all()
            assert np.abs(m).max() > 0.0

    @pytest.mark.parametrize("bracket,tag,derivation", [case[1:] for case in ROTATED_GROUPS],
                             ids=[case[0] for case in ROTATED_GROUPS])
    def test_every_draw_lands(self, monkeypatch, bracket, tag, derivation):
        """Each draw is one point, within 1e-11 of the slice, and the group
        element still commutes with the torus or the derivation."""
        b = bracket()
        drawn = []
        _draws_that_fail(monkeypatch, drawn, lambda g0: None)
        s = orbit_sample(tag, b, count=12, seed=31, derivation=derivation)
        assert len(drawn) == len(s.points) == 12
        assert max(mv.offdiagonal_max() for _, mv in s.points) <= 1e-11
        s.verify(b)
        blocks = _group_blocks(tag, b, derivation)
        for (g, _), g0 in zip(s.points, drawn):
            for blk in blocks:
                rest = [i for i in range(b.dim) if i not in blk]
                assert (g[np.ix_(blk, rest)] == 0.0).all()
                Q = g[np.ix_(blk, blk)] @ np.linalg.inv(g0[np.ix_(blk, blk)])
                assert np.abs(Q @ Q.T - np.eye(len(blk))).max() < 1e-9

    def test_triple_block_takes_one_draw_a_point(self, monkeypatch):
        """tricky5 with D = diag(1, 0, 1, 1, 2) and its 3 x 3 block: the
        sample that steering filled with 16 solves, 8 of which ran to their
        budget, takes 8 draws."""
        drawn = []
        _draws_that_fail(monkeypatch, drawn, lambda g0: None)
        s = orbit_sample("DerivationCentralizer", t5(), count=8, seed=123, derivation=D_TRIPLE)
        assert len(s.points) == len(drawn) == 8

    def test_off_slice_draws_are_redrawn(self, monkeypatch):
        """A draw left off the slice is dropped and costs one of the 80 *
        count draws; when none lands, the budget runs out."""
        drawn, rotate = [], moment._rotated_onto_slice
        _draws_that_fail(monkeypatch, drawn, lambda g0: None)
        monkeypatch.setattr(moment, "_rotated_onto_slice", lambda C, g0, blocks: (
            rotate(C, g0, blocks) if len(drawn) % 2 else g0))
        s = orbit_sample("TorusCentralizer", t5(), count=6, seed=37)
        assert len(s.points) == 6 and len(drawn) == 11
        assert max(mv.offdiagonal_max() for _, mv in s.points) <= 1e-11
        drawn.clear()
        monkeypatch.setattr(moment, "_rotated_onto_slice", lambda C, g0, blocks: g0)
        with pytest.raises(NumericalError, match="kept failing"):
            orbit_sample("TorusCentralizer", t5(), count=2, seed=37)
        assert len(drawn) == 160

    def test_cone_sample_covers_both_orders(self):
        """The eigenvectors go to the basis vectors they lean on most, so
        the (2, 3) block's eigenvalues land in both orders; eigh's
        ascending order would put the smaller at index 2 every time."""
        s = orbit_sample("TorusCentralizer", t5(), count=SAMPLE_COUNT, seed=5)
        d = s.diagonals()
        assert (d[:, 2] < d[:, 3]).any() and (d[:, 2] > d[:, 3]).any()

    def test_nearest_identity_order(self):
        """A rotation by less than 45 degrees, its columns permuted and
        signed, comes back as the rotation."""
        c, s = math.cos(0.3), math.sin(0.3)
        R = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
        V = R[:, [2, 0, 1]] * np.array([-1.0, 1.0, -1.0])
        assert np.array_equal(moment._nearest_identity(V), R)


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


def sequential_sample(b, count, seed, poisoned=None, tag="DiagPositive", derivation=None):
    """orbit_sample one draw at a time: a DiagPositive draw steered to the
    end before the next is drawn, a centralizer-group draw rotated onto
    the slice and kept if it lands.  The reference that the lockstep
    windows, and the rotated draws, must match byte for byte.  Returns
    the (g, moment matrix) pairs."""
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
        if tag == "DiagPositive":
            g = steer_to_diagonal(C, g0, blocks, rng, poisoned)
        else:
            g = moment._rotated_onto_slice(C, g0, blocks)
            if moment_map(act(BasisChange(g), b)).offdiagonal_max() > 1e-11:
                g = None
        if g is not None:
            points.append((g, moment_map(act(BasisChange(g), b)).matrix))
    return points


def recorded_solves(monkeypatch, run):
    """Call run() and return every draw that moment._steer steered
    meanwhile, in call order: (C, blocks, g0, x0, check_start, steered
    element or None), up to the first draw of each call that does not
    land, since the draws after it are cut short and dropped."""
    solves = []
    steer = moment._steer

    def recording(C, blocks, G0, X0, check_start=False):
        out = steer(C, blocks, G0, X0, check_start)
        solves.extend((C, blocks, g0, x0, check_start, g) for g0, x0, g in zip(G0, X0, out))
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


# (id, bracket) of the steering tests: DiagPositive draws, the one group
# that steers, on two brackets whose bases are not nice
STEERING_CASES = [("DiagPositive", t5), ("DiagPositive-filiform5", f5_sheared)]
STEERING_IDS = [case_id for case_id, _ in STEERING_CASES]


def _steering_stack(bracket, seed, rows):
    """A DiagPositive stack on bracket(): C, blocks, `rows` draws and the
    points x (the first two zero, the others random) the draws are
    steered from."""
    b = bracket()
    blocks = _group_blocks("DiagPositive", b)
    rng = np.random.default_rng(seed)
    G0, X = [], []
    for trial in range(rows):
        G0.append(_draw_block_element(rng, blocks, b.dim))
        X.append(np.zeros(b.dim) if trial < 2 else 0.3 * rng.standard_normal(b.dim))
    return b.tensor(), blocks, np.array(G0), np.array(X)


class TestSteering:
    @pytest.mark.parametrize("bracket", [b for _, b in STEERING_CASES], ids=STEERING_IDS)
    def test_jacobian_matches_central_differences(self, bracket):
        C, blocks, G0, X = _steering_stack(bracket, 41, 6)
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

    @pytest.mark.parametrize("bracket", [b for _, b in STEERING_CASES], ids=STEERING_IDS)
    def test_stacked_rows_match_single_point_reference(self, bracket):
        """Each row of a stacked residual and Jacobian has the bits of the
        one-point reference, and a singular element in the stack is a NaN
        row that leaves the other rows' bits alone."""
        C, blocks, G0, X = _steering_stack(bracket, 43, 7)
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
        when it lands.  Where it lands may differ: on tricky5 the slice
        through a draw is the hyperplane x_2 + x_3 = x_1 + x_4 + const of
        the log scales x, along which the moment diagonal moves, and the
        point a solve reaches on it depends on the solver's path."""
        b = t5()
        runs = recorded_solves(monkeypatch, lambda: [
            orbit_sample("DiagPositive", b, count=count, seed=seed) for seed in seeds])
        assert len(runs) == solves
        for _, blocks, g0, x0, check_start, g in runs:
            want = reference_attempt(b, g0, blocks, x0, check_start)
            assert (g is None) == (want is None)


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


def _outcome(run):
    try:
        return [(g.tobytes(), m.tobytes()) for g, m in run()]
    except NumericalError as err:
        return str(err)


class TestLockstepSteering:
    """orbit_sample steers DiagPositive draws in lockstep windows; every
    sample must have the bytes of sequential_sample, which steers one draw
    at a time.  Centralizer-group draws are rotated onto the slice one at
    a time and take no steering solve."""

    # (id, group tag, bracket, derivation, count, seed, hook, fewest
    # windows whose first failing draw is not their last, fewest random
    # restarts)
    CASES = [
        ("DiagPositive", "DiagPositive", t5, None, 12, 3, None, 0, 0),
        ("DiagPositive-filiform5", "DiagPositive", f5_sheared, None, 16, 5, None, 0, 0),
        ("TorusCentralizer", "TorusCentralizer", t5, None, 16, 5, None, 0, 0),
        ("DerivationCentralizer-pairs", "DerivationCentralizer", t5, D_PAIRS, 8, 12, None, 0, 0),
        ("DerivationCentralizer-triple", "DerivationCentralizer", t5, D_TRIPLE, 8, 20, None,
         0, 0),
        ("first-attempts-fail", "DiagPositive", t5, None, 12, 7, "poison", 3, 3),
        ("singular-trials", "DiagPositive", t5, None, 8, 9, "singular", 0, 0),
        # two points kept, then the budget runs out, and every failing
        # draw takes both random restarts
        ("budget-spent", "DiagPositive", t5, None, 3, 4, "nan", 144, 476),
        # raising draws are drawn and dropped before one is reached
        ("draw-raises", "DiagPositive", t5, None, 24, 7, "raise", 2, 4),
    ]

    @pytest.mark.parametrize("tag,bracket,derivation,count,seed,hook,rewinds,restarts",
                             [case[1:] for case in CASES], ids=[case[0] for case in CASES])
    def test_same_bytes_as_sequential_driver(self, monkeypatch, tag, bracket, derivation, count,
                                             seed, hook, rewinds, restarts):
        b = bracket()
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
        want = _outcome(lambda: sequential_sample(b, count, seed, poisoned, tag, derivation))
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
        if tag != "DiagPositive":
            assert windows == []

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
        return counts.get("_steering_residuals"), counts.get("_steering_jacobians")

    def test_evaluator_calls_of_a_cone_sample(self, monkeypatch):
        """The 48 draws of the cone command's TorusCentralizer sample are
        rotated onto the slice in closed form: no steering evaluator runs.
        Steered one draw at a time, the same sample took 3403 residual and
        1379 Jacobian calls."""
        counts = self.evaluator_counts(
            monkeypatch, lambda: orbit_sample("TorusCentralizer", t5(), count=48, seed=5))
        assert counts == (None, None)

    def test_evaluator_calls_of_a_diagonal_sample(self, monkeypatch):
        """The 48 draws of a DiagPositive sample share stacked evaluator
        calls, the zero check is each solve's first residual, and each
        round answers a residual request and the Jacobian request that
        follows it."""
        (f_calls, f_rows), (j_calls, j_rows) = self.evaluator_counts(
            monkeypatch, lambda: orbit_sample("DiagPositive", t5(), count=48, seed=5))
        # measured: 114 calls over 4675 rows and 114 calls over 3927 rows;
        # one draw at a time takes one call a row
        assert f_calls <= 120 and f_rows <= 4690
        assert j_calls <= 120 and j_rows <= 3940

    def test_draws_after_a_failure_stop_at_once(self, monkeypatch):
        """A draw that fails at its start ends the solves of the draws
        after it in the same round."""
        _poison_first_attempts(monkeypatch, lambda g0: _crc(g0, 3) == 0)
        (_, f_rows), (_, j_rows) = self.evaluator_counts(
            monkeypatch, lambda: orbit_sample("DiagPositive", t5(), count=12, seed=7))
        assert f_rows <= 1380 and j_rows <= 1255   # measured: 1370 and 1248

    def test_a_failure_at_a_jacobian_answer_ends_later_draws(self, monkeypatch):
        """A solve that ends off the slice right after its Jacobian answer
        ends the solves of the later draws in the same round, so they take
        no further residual rows."""
        C, blocks, G0, X = _steering_stack(t5, 41, 3)
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
    """Every steering solve of two DiagPositive samples, on tricky5 and on
    the sheared filiform:5, recorded from the lockstep and replayed by the
    port's sequential driver trf_solve and by scipy.optimize.least_squares
    on the same residual, Jacobian and x0: a list of (x0, lockstep
    element or None, port result, scipy result).  A draw that lands at x
    = 0 takes no solve.  The residual at x = 0 is NaN for a third of the
    draws (_poison_first_attempts), so that they restart from a random
    x0; those first attempts, which least_squares refuses, are not
    replayed."""
    poisoned = lambda g0: _crc(g0, 3) == 0   # noqa: E731
    _poison_first_attempts(monkeypatch, poisoned)
    runs = []
    solves = recorded_solves(monkeypatch, lambda: (
        orbit_sample("DiagPositive", t5(), count=6, seed=17),
        orbit_sample("DiagPositive", f5_sheared(), count=8, seed=18)))
    for C, blocks, g0, x0, check_start, g in solves:
        fun, jac = steering_functions(C, g0, blocks)
        if check_start and (poisoned(g0) or lands(fun(x0))):
            continue
        with np.errstate(invalid="ignore", divide="ignore"):
            got = trf_solve(fun, jac, x0, ftol=3e-16, xtol=3e-16, max_nfev=300)
            want = least_squares(fun, x0, jac=jac, ftol=3e-16, xtol=3e-16, gtol=None,
                                 max_nfev=300)
        runs.append((x0, g, got, want))
    assert len(runs) == 14
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
        blocks = _group_blocks("DiagPositive", b)
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
        (g,) = moment._steer(b.tensor(), blocks, g0[None], np.zeros((1, b.dim)),
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
        """Steering loads scipy.linalg's LAPACK wrappers only; a sampled
        certify, whose TorusCentralizer sample is rotated onto the slice,
        loads no scipy module at all."""
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parent.parent / "src")
        env["PYTHONPATH"] = os.pathsep.join(
            [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        code = ("import sys; from rnlie.cli import main; from rnlie.corpus import corpus; "
                "from rnlie.moment import orbit_sample; "
                "main(['certify', '--algebra', 'tricky5', '--derivation', '[1, 1, 2, 2, 3]', "
                "'--method', 'sampled', '--sample-count', '8', '--seed', '1']); "
                "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')); "
                "orbit_sample('DiagPositive', corpus('tricky5').bracket, count=4, seed=17); "
                "print(sorted(m for m in sys.modules if m.startswith('scipy.optimize')))")
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        *_, certify, steering = proc.stdout.splitlines()
        assert '"Certificate"' in proc.stdout
        assert (certify, steering) == ("[]", "[]")


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

    @pytest.mark.parametrize("bracket", [b for _, b in STEERING_CASES], ids=STEERING_IDS)
    def test_steering_rows_match_reference(self, bracket):
        """Steering solves on the stacked evaluators, against the one-point
        reference functions row by row."""
        C, blocks, G0, X0 = _steering_stack(bracket, 47, 5)
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


def _mp_expm(A):
    """exp(A) at 50 digits, rounded to floats."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        return np.array(mpmath.expm(mpmath.matrix(A.tolist())).tolist(), dtype=float)


class TestBlock2Exp:
    """The closed-form exp of a 2 x 2 block against 50-digit references,
    and against scipy's expm, which is itself off by up to 3e-13 (large
    tau) and 4e-13 (large delta)."""

    @pytest.mark.parametrize("A", BLOCK2_CASES.values(), ids=BLOCK2_CASES.keys())
    def test_exp(self, A):
        A = np.array(A)
        got = _metric_factors(A.ravel()[None], [(0, 1)], 2)[0]
        want = _mp_expm(A)
        scale = np.abs(want).max()
        assert np.abs(got - want).max() <= 1e-15 * scale
        assert np.abs(got - expm(A)).max() <= 1e-12 * scale

    def test_rows_of_a_stack_keep_their_bits(self):
        """The metric search exponentiates stacks."""
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
