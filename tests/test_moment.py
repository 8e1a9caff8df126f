import hashlib
import math
import os
import re
import subprocess
import sys
import warnings
import zlib
from fractions import Fraction as F
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import least_squares

from rnlie import moment
from rnlie.brackets import Bracket, BasisChange, act, act_tensor, gram_difference
from rnlie.cone import SAMPLE_COUNT
from rnlie.corpus import corpus
from rnlie.curvature import ricci_nilpotent
from rnlie.errors import NumericalError, PreconditionError
from rnlie.moment import (_acted_moment_matrix, _draw_block_elements, _group_blocks,
                          _slice_jacobian, _slice_layout, _slice_residual,
                          moment_map, nice_basis_check, orbit_sample, weight_coordinates,
                          weight_matrix, weight_polytope)
from rnlie.rng import generator

T5_TRIPLES = ((0, 1, 2), (0, 1, 3), (0, 2, 4), (0, 3, 4))


def t5():
    return corpus("tricky5").bracket


def h(n):
    return corpus("heisenberg", n).bracket


def f5_sheared(row=1, col=3):
    """filiform:5 acted on by 1 + E_13 (0-based), or by 1 + E_{row col}: a
    basis that is not nice, whose DiagPositive moment values have
    off-diagonal entries to steer away, where those of filiform:5 are all
    diagonal."""
    g = [[F(int(i == j or (i, j) == (row, col))) for j in range(5)] for i in range(5)]
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

    def test_point_bound(self):
        # the one bound is 16 distinct weight points, whatever the dimension
        wp = weight_polytope(corpus("heisenberg", 9).bracket)
        assert len(wp.hull.unique) == 4 and wp.dim == 3 and wp.face_count() == 15
        with pytest.raises(PreconditionError,
                           match="17 distinct points exceeds the hull bound 16"):
            weight_polytope(corpus("filiform", 19).bracket)


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

    def test_report_is_computed_once_per_bracket(self):
        b = Bracket(5, dict(t5().constants))
        assert nice_basis_check(b) is nice_basis_check(b)
        again = Bracket(5, dict(t5().constants))
        assert nice_basis_check(again) == nice_basis_check(b)
        assert again == b and repr(again) == repr(b)


class TestOrbitSample:
    def test_h3_every_sample_at_vertex(self):
        s = orbit_sample("DiagPositive", h(3), count=6, seed=7)
        assert len(s.points) == 6
        target = np.array([-1.0, -1.0, 1.0])
        assert np.abs(s.diagonals() - target).max() < 1e-10
        s.verify(h(3))

    def test_verify_rejects_a_swapped_last_point(self):
        """verify acts on and measures every point as one stack: a sample
        drawn for another bracket fails, and so does one whose last point
        alone comes from another bracket's sample."""
        s = orbit_sample("TorusCentralizer", t5(), count=8, seed=3)
        other = orbit_sample("TorusCentralizer", h(5), count=8, seed=3)
        s.verify(t5())
        other.verify(h(5))
        with pytest.raises(PreconditionError, match="another bracket"):
            other.verify(t5())
        swapped = moment.OrbitSample(s.group_tag, s.points[:-1] + other.points[-1:], s.seed)
        with pytest.raises(PreconditionError, match="another bracket"):
            swapped.verify(t5())
        moment.OrbitSample(s.group_tag, (), s.seed).verify(t5())

    @pytest.mark.parametrize("seed", [-1, 2 ** 64])
    def test_seed_outside_philox_key_range_is_refused(self, seed):
        with pytest.raises(PreconditionError, match="outside"):
            orbit_sample("TorusCentralizer", t5(), count=4, seed=seed)

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
# the same, and DiagPositive, whose draws Gauss-Newton moves onto the slice
LANDING_GROUPS = ROTATED_GROUPS + [("tricky5-diagonal", t5, "DiagPositive", None)]


class TestRotatedDraws:
    """TorusCentralizer and DerivationCentralizer draws reach the diagonal
    slice by one rotation inside the group's blocks, DiagPositive draws by
    Gauss-Newton in their log scales."""

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
            m = gram_difference(act_tensor(C, _draw_block_elements(rng, blocks, b.dim, 1)[0]))
            assert (m[off] == 0.0).all()
            assert np.abs(m).max() > 0.0

    @pytest.mark.parametrize("bracket,tag,derivation", [case[1:] for case in LANDING_GROUPS],
                             ids=[case[0] for case in LANDING_GROUPS])
    def test_every_draw_lands(self, monkeypatch, bracket, tag, derivation):
        """Each draw is one point, within 1e-11 of the slice, and the group
        element still commutes with the torus or the derivation: g g0^-1 is
        orthogonal on each block, or positive and diagonal for DiagPositive."""
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
                if tag == "DiagPositive":
                    assert Q[0, 0] > 0.0
                else:
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
        count draws; when none lands, the budget runs out.  Both for the
        rotation and for DiagPositive's Gauss-Newton.  The stacked move
        leaves each even-numbered draw where it was drawn."""
        for tag, name in (("TorusCentralizer", "_rotated_draws"),
                          ("DiagPositive", "_scaled_draws")):
            with monkeypatch.context() as patch:
                drawn, move = [], getattr(moment, name)
                _draws_that_fail(patch, drawn, lambda g0: None)

                def every_other(C, G0, blocks):
                    # the stack holds draws len(drawn) - len(G0) + 1 to len(drawn)
                    odd = np.arange(len(drawn) - len(G0) + 1, len(drawn) + 1) % 2 == 1
                    return np.where(odd[:, None, None], move(C, G0, blocks), G0)

                patch.setattr(moment, name, every_other)
                s = orbit_sample(tag, t5(), count=6, seed=37)
                assert len(s.points) == 6 and len(drawn) == 11
                assert max(mv.offdiagonal_max() for _, mv in s.points) <= 1e-11
                drawn.clear()
                patch.setattr(moment, name, lambda C, G0, blocks: G0)
                with pytest.raises(NumericalError, match="kept failing"):
                    orbit_sample(tag, t5(), count=2, seed=37)
                assert len(drawn) == 160

    def test_unusable_elements_are_redrawn(self, monkeypatch):
        """An element that is not finite, one whose acted bracket act cuts
        to zero, and a singular one each cost a draw and raise nothing.
        diag(1, 1, inf, 1, 1) is the case that needs its own check: act
        keeps the finite part of its bracket, two of tricky5's four
        constants, and that part's moment value is diagonal.  Gauss-Newton
        runs once a draw, in draw order, so its calls number the draws."""
        moves, move = [], moment._scaled_onto_slice
        unusable = [np.full((5, 5), np.nan), np.diag([1.0, 1.0, np.inf, 1.0, 1.0]),
                    np.diag([1e200, 1.0, 1.0, 1.0, 1.0]), np.zeros((5, 5))]

        def four_in_five_unusable(C, g0, blocks):
            moves.append(g0)
            k = len(moves) % 5
            return move(C, g0, blocks) if k == 0 else unusable[k - 1]

        monkeypatch.setattr(moment, "_scaled_onto_slice", four_in_five_unusable)
        drawn = []
        _draws_that_fail(monkeypatch, drawn, lambda g0: None)
        s = orbit_sample("DiagPositive", t5(), count=5, seed=41)
        assert len(s.points) == 5 and len(drawn) == len(moves) == 25
        s.verify(t5())

    @pytest.mark.parametrize("name,param", [("heisenberg", 3), ("heisenberg", 5),
                                            ("filiform", 5), ("filiform", 6)])
    def test_nice_basis_draws_are_kept_as_drawn(self, monkeypatch, name, param):
        """On a nice basis every DiagPositive moment value is diagonal, so
        each draw is kept as drawn, bit for bit."""
        drawn = []
        _draws_that_fail(monkeypatch, drawn, lambda g0: None)
        s = orbit_sample("DiagPositive", corpus(name, param).bracket, count=8, seed=2)
        assert [g.tobytes() for g, _ in s.points] == [g0.tobytes() for g0 in drawn]

    @pytest.mark.parametrize("shear,seed", [((2, 3), 1), ((3, 2), 1), ((4, 3), 1), ((1, 2), 19)],
                             ids=["E23", "E32", "E43", "E12"])
    def test_sheared_filiform_diagonal_samples(self, shear, seed):
        """filiform:5 acted on by 1 + E_ij, bases that are not nice, where a
        solve can meet a non-finite Jacobian (E23, E32, E43) or run its
        scales off until act cuts every constant (E12): such draws are
        redrawn, and every point kept lands."""
        b = f5_sheared(*shear)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            s = orbit_sample("DiagPositive", b, count=8, seed=seed)
        assert len(s.points) == 8
        assert max(mv.offdiagonal_max() for _, mv in s.points) <= 1e-11
        s.verify(b)

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
        assert np.array_equal(nearest_identity(V), R)
        assert np.array_equal(moment._nearest_identities(V[None])[0], R)


def nearest_identity(V):
    """The columns of the orthogonal V, permuted and signed so that each
    sits at the basis vector it leans on most, with a positive entry
    there: largest |entry| first, each row and column taken once, in the
    order of a stable sort.  One matrix at a time, as _rotated_draws did
    it; the reference for moment._nearest_identities."""
    W, free = np.empty_like(V), np.ones(V.shape, bool)
    for flat in np.argsort(-np.abs(V), axis=None, kind="stable").tolist():
        r, c = divmod(flat, len(V))
        if free[r, c]:
            W[:, r] = V[:, c] if V[r, c] > 0 else -V[:, c]
            free[r], free[:, c] = False, False
    return W


def _signed_permutations(rng, V):
    """V with its columns permuted and signed at random, both ways for
    each matrix of the stack."""
    out = []
    for v in V:
        n = len(v)
        out.append(v[:, rng.permutation(n)] * rng.choice([-1.0, 1.0], n))
        out.append(v[rng.permutation(n)] * rng.choice([-1.0, 1.0], n)[:, None])
    return np.array(out)


def _tied_blocks(n):
    """Orthogonal n x n matrices whose entries tie exactly: the identity,
    45-degree rotations (both entries sqrt(1/2)) alone and side by side,
    for n >= 3 the reflection I - 2/3 J in the first three coordinates,
    whose six off-diagonal entries 2/3 tie above its diagonal 1/3, so that
    which tie goes first decides the assignment, and for n = 4 the
    Hadamard matrix over 2, every entry 1/2."""
    r = math.sqrt(0.5)
    rot = np.array([[r, -r], [r, r]])
    out = [np.eye(n)]
    for at in range(n - 1):
        m = np.eye(n)
        m[at:at + 2, at:at + 2] = rot
        out.append(m)
    if n >= 3:
        m = np.eye(n)
        m[:3, :3] = np.array([[-1.0, 2.0, 2.0], [2.0, -1.0, 2.0], [2.0, 2.0, -1.0]]) / 3.0
        out.append(m)
    if n == 4:
        m = np.zeros((4, 4))
        m[:2, :2], m[2:, 2:] = rot, rot.T
        out.append(m)
        out.append(0.5 * np.array([[1, 1, 1, 1], [1, -1, 1, -1],
                                   [1, 1, -1, -1], [1, -1, -1, 1]], dtype=float))
    return np.array(out)


class TestNearestIdentities:
    """The stacked greedy assignment has the bytes of the loop over one
    matrix at a time (nearest_identity), ties included."""

    @staticmethod
    def _same_as_loop(V):
        want = np.array([nearest_identity(v) for v in V])
        assert moment._nearest_identities(V).tobytes() == want.tobytes()

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_random_orthogonal_stacks(self, n):
        rng = np.random.default_rng(100 + n)
        V = np.linalg.qr(rng.standard_normal((300, n, n)))[0]
        self._same_as_loop(V)
        self._same_as_loop(_signed_permutations(rng, V[:50]))

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_signed_permutations_and_exact_ties(self, n):
        rng = np.random.default_rng(200 + n)
        tied = _tied_blocks(n)
        self._same_as_loop(tied)
        for _ in range(20):
            self._same_as_loop(_signed_permutations(rng, tied))


def lands(fun):
    return np.abs(fun).max() <= 1e-11


def draw_block_element(rng, blocks, n):
    """One element of the block-diagonal group, drawn as orbit_sample drew
    them one at a time: per block standard normal entries, then
    log-uniform diagonal entries in [e^-6, e^6]; redrawn while its
    condition number is 1e8 or more, at most 64 times."""
    for _ in range(64):
        g = np.zeros((n, n))
        for blk in blocks:
            k = len(blk)
            sub = rng.standard_normal((k, k))
            for t in range(k):
                sub[t, t] = math.exp(rng.uniform(-6.0, 6.0))
            g[np.ix_(blk, blk)] = sub
        if np.linalg.cond(g) < 1e8:
            return g
    raise NumericalError("could not draw a well-conditioned group element")


def rotated_onto_slice(C, g0, blocks):
    """K g0 for the block-diagonal orthogonal K that diagonalises the
    moment matrix of g0 . C block by block, one draw at a time: one eigh
    per block, its eigenvectors ordered nearest the identity."""
    m = _acted_moment_matrix(C, g0)
    K = np.eye(len(g0))
    for blk in blocks:
        if len(blk) > 1:
            block = np.ix_(blk, blk)
            K[block] = nearest_identity(np.linalg.eigh(m[block])[1]).T
    return K @ g0


def sequential_sample(b, count, seed, tag="DiagPositive", derivation=None,
                      draw=draw_block_element, rng=None):
    """orbit_sample written out one draw at a time: each draw moved onto
    the slice by its group's move (Gauss-Newton for DiagPositive, the
    block rotation for the centralizer groups), and kept if g and its
    acted bracket are finite, the bracket is nonzero and its moment value
    lands.  The reference that
    samples must match byte for byte.  Returns the (g, moment matrix)
    pairs; `rng`, when given, is the generator it draws from."""
    blocks = _group_blocks(tag, b, derivation)
    if rng is None:
        rng = generator(seed, moment._TAG_STREAM[tag])
    move = moment._scaled_onto_slice if tag == "DiagPositive" else rotated_onto_slice
    C, n = b.tensor(), b.dim
    points = []
    budget = 80 * count
    while len(points) < count:
        budget -= 1
        if budget < 0:
            raise NumericalError(
                "steering onto the diagonal moment slice kept failing; "
                "the orbit may have no diagonal moment values")
        g0 = draw(rng, blocks, n)
        try:
            with np.errstate(all="ignore"):
                g = move(C, g0, blocks)
                if not np.isfinite(g).all():   # act refuses a non-finite g
                    continue
                acted = act(BasisChange(g), b)
        except np.linalg.LinAlgError:   # a singular g
            continue
        constants = list(acted.constants.values())
        if constants and np.isfinite(constants).all():
            mv = moment_map(acted)
            if mv.offdiagonal_max() <= 1e-11:
                points.append((g, mv.matrix))
    return points


def recorded_moves(monkeypatch, run):
    """Call run() and return (g0, g) for every DiagPositive draw g0 that
    moment._scaled_onto_slice moved to g meanwhile, in call order."""
    moves, move = [], moment._scaled_onto_slice

    def recording(C, g0, blocks):
        g = move(C, g0, blocks)
        moves.append((g0, g))
        return g

    monkeypatch.setattr(moment, "_scaled_onto_slice", recording)
    run()
    return moves


def reference_attempt(b, g0):
    """One solve by least_squares taking its Jacobian by finite
    differences, over g(x) = exp(diag(x)) g0 from x = 0, on the upper
    off-diagonal entries of the dense moment matrix.  Returns the element
    reached, or None where it does not land within 1e-11."""
    C = b.tensor()
    iu = np.triu_indices(b.dim, 1)

    def element(x):
        return np.diag(np.exp(x)) @ g0

    def resid(x):
        return _acted_moment_matrix(C, element(x))[iu]

    x0 = np.zeros(b.dim)
    if lands(resid(x0)):
        return g0
    with np.errstate(invalid="ignore", divide="ignore"):
        res = least_squares(resid, x0, xtol=3e-16, ftol=3e-16, gtol=None, max_nfev=300)
    return element(res.x) if lands(resid(res.x)) else None


# (id, bracket) of the Gauss-Newton tests: DiagPositive draws on two
# brackets whose bases are not nice
STEERING_CASES = [("DiagPositive", t5), ("DiagPositive-filiform5", f5_sheared)]
STEERING_IDS = [case_id for case_id, _ in STEERING_CASES]


class TestSteering:
    @pytest.mark.parametrize("bracket", [b for _, b in STEERING_CASES], ids=STEERING_IDS)
    def test_jacobian_matches_central_differences(self, bracket):
        """At log scales s (six DiagPositive draws, four of them moved by
        random x), the Jacobian of _slice_jacobian against central
        differences of the dense moment matrix of diag(e^s) . C, and the
        entrywise-scaled tensor against act_tensor."""
        b = bracket()
        C, n = b.tensor(), b.dim
        blocks = _group_blocks("DiagPositive", b)
        rng = np.random.default_rng(41)
        iu = np.triu_indices(n, 1)
        step = 1e-6
        for trial in range(6):
            g0 = _draw_block_elements(rng, blocks, n, 1)[0]
            x = np.zeros(n) if trial < 2 else 0.3 * rng.standard_normal(n)
            s = np.log(np.diag(g0)) + x
            nu = act_tensor(C, np.diag(np.exp(s)))
            scaled = C * np.exp(_slice_layout(n)[0] @ s)
            assert (np.abs(scaled - nu) <= 1e-14 * np.abs(nu)).all()
            r, state = _slice_residual(C, s)
            J = _slice_jacobian(*state)
            assert J.shape == (len(iu[0]), n)
            assert np.abs(r - _acted_moment_matrix(C, np.diag(np.exp(s)))[iu]).max() <= 1e-15
            for k in range(n):
                e = np.zeros(n)
                e[k] = step
                central = (_acted_moment_matrix(C, np.diag(np.exp(s + e)))[iu]
                           - _acted_moment_matrix(C, np.diag(np.exp(s - e)))[iu])
                assert np.abs(J[:, k] - central / (2 * step)).max() \
                    <= 1e-6 * np.abs(J).max()

    @pytest.mark.parametrize("seeds,count,solves", [(range(17, 27), 8, 80), ((123,), 40, 40)],
                             ids=["seeds17-26", "seed123"])
    def test_same_draws_as_finite_difference_reference(self, monkeypatch,
                                                       seeds, count, solves):
        """Every draw moved here, replayed from its start by least_squares
        with a finite-difference Jacobian, lands here when it lands there;
        here every draw lands, one draw a point.  Where it lands may
        differ: on tricky5 the slice through a draw is the hyperplane
        x_2 + x_3 = x_1 + x_4 + const of the log scales x, along which the
        moment diagonal moves, and the point a solve reaches on it depends
        on the solver's path."""
        b = t5()
        iu = np.triu_indices(b.dim, 1)
        runs = recorded_moves(monkeypatch, lambda: [
            orbit_sample("DiagPositive", b, count=count, seed=seed) for seed in seeds])
        assert len(runs) == solves
        for g0, g in runs:
            if reference_attempt(b, g0) is not None:
                assert lands(_acted_moment_matrix(b.tensor(), g)[iu])


def _crc(a, modulus):
    """A fixed pseudo-random residue of the bytes of a."""
    return zlib.crc32(np.ascontiguousarray(a).tobytes()) % modulus


def _draws_that_fail(monkeypatch, drawn, fail):
    """Record every element orbit_sample draws in `drawn`, in draw order;
    fail(g0) says whether a draw is unusable (NaN), singular (zero),
    raises NumericalError, or stands (None).  Returns the same hook around
    draw_block_element, for sequential_sample to draw through."""
    draw = moment._draw_block_elements

    def hooked(g0):
        drawn.append(g0)
        how = fail(g0)
        if how == "raise":
            raise NumericalError("could not draw a well-conditioned group element")
        return g0 * {"nan": np.nan, "singular": 0.0}.get(how, 1.0)

    monkeypatch.setattr(moment, "_draw_block_elements", lambda rng, blocks, n, k: np.array(
        [hooked(g0) for g0 in draw(rng, blocks, n, k)]))
    return lambda rng, blocks, n: hooked(draw_block_element(rng, blocks, n))


def _outcome(run):
    try:
        return [(g.tobytes(), m.tobytes()) for g, m in run()]
    except NumericalError as err:
        return str(err)


def _residual_calls(monkeypatch, run):
    """How many times Gauss-Newton evaluates its residual while run() runs."""
    calls, residual = [], moment._slice_residual
    monkeypatch.setattr(moment, "_slice_residual",
                        lambda C, s: calls.append(s) or residual(C, s))
    run()
    return len(calls)


class TestLockstepSteering:
    """orbit_sample draws one element at a time, moves it onto the slice
    and keeps it if it lands; every sample must have the bytes of
    sequential_sample.  Centralizer-group draws are rotated onto the slice
    and take no Gauss-Newton solve."""

    # (id, group tag, bracket, derivation, count, seed, hook)
    CASES = [
        ("DiagPositive", "DiagPositive", t5, None, 12, 3, None),
        ("DiagPositive-filiform5", "DiagPositive", f5_sheared, None, 16, 5, None),
        ("TorusCentralizer", "TorusCentralizer", t5, None, 16, 5, None),
        ("DerivationCentralizer-pairs", "DerivationCentralizer", t5, D_PAIRS, 8, 12, None),
        ("DerivationCentralizer-triple", "DerivationCentralizer", t5, D_TRIPLE, 8, 20, None),
        # two points kept, then the budget runs out on unusable draws
        ("budget-spent", "DiagPositive", t5, None, 3, 3, "nan"),
        # the first draw that raises ends the sample
        ("draw-raises", "DiagPositive", t5, None, 24, 7, "raise"),
    ]

    @pytest.mark.parametrize("tag,bracket,derivation,count,seed,hook",
                             [case[1:] for case in CASES], ids=[case[0] for case in CASES])
    def test_same_bytes_as_sequential_driver(self, monkeypatch, tag, bracket, derivation, count,
                                             seed, hook):
        b = bracket()
        drawn, draw = [], draw_block_element
        if hook == "nan":
            draw = _draws_that_fail(monkeypatch, drawn,
                                    lambda g0: None if _crc(g0, 97) == 0 else "nan")
        elif hook == "raise":
            draw = _draws_that_fail(monkeypatch, drawn, lambda g0: (
                "raise" if _crc(g0, 23) == 0 else "nan" if _crc(g0, 7) == 0 else None))
        out = []
        solves = _residual_calls(monkeypatch, lambda: out.append(_outcome(
            lambda: [(g, mv.matrix) for g, mv in orbit_sample(
                tag, b, count=count, seed=seed, derivation=derivation).points])))
        got = out[0]
        last_drawn = drawn[-1].tobytes() if drawn else None
        if hook == "raise":
            assert sum(_crc(g0, 23) == 0 for g0 in drawn) == 1
        drawn.clear()
        want = _outcome(lambda: sequential_sample(b, count, seed, tag, derivation, draw))
        assert got == want
        assert (drawn[-1].tobytes() if drawn else None) == last_drawn
        if hook in ("nan", "raise"):
            assert isinstance(got, str)   # the sample raised
        else:
            assert len(got) == count
        if tag != "DiagPositive":
            assert solves == 0

    def test_evaluator_calls_of_a_cone_sample(self, monkeypatch):
        """The 48 draws of the cone command's TorusCentralizer sample are
        rotated onto the slice in closed form: no Gauss-Newton residual is
        evaluated."""
        assert _residual_calls(monkeypatch, lambda: orbit_sample(
            "TorusCentralizer", t5(), count=48, seed=5)) == 0

    def test_evaluator_calls_of_a_diagonal_sample(self, monkeypatch):
        """Each of the 48 draws of a DiagPositive sample lands, in at most
        61 residual evaluations by construction; measured 1011 in all."""
        drawn = []
        _draws_that_fail(monkeypatch, drawn, lambda g0: None)
        calls = _residual_calls(
            monkeypatch, lambda: orbit_sample("DiagPositive", t5(), count=48, seed=5))
        assert len(drawn) == 48 and calls <= 1020


# (id, bracket, derivation whose centralizer has a block larger than 1 x 1)
# of the byte grid
GRID_ALGEBRAS = [
    ("tricky5", t5, D_PAIRS),
    ("heisenberg5", lambda: h(5), np.diag([1.0, 1.0, 1.0, 1.0, 2.0])),
    ("filiform5", lambda: corpus("filiform", 5).bracket, np.diag([0.0, 1.0, 1.0, 1.0, 1.0])),
    ("filiform6", lambda: corpus("filiform", 6).bracket, np.diag([1.0, 1.0, 2.0, 3.0, 4.0, 5.0])),
    ("heisenberg3", lambda: h(3), np.diag([1.0, 1.0, 2.0])),
]


def _state(rng):
    """The generator's Philox state (counter, key and buffer arrays) as text."""
    return repr(rng.bit_generator.state)


def _captured_generators(monkeypatch):
    """The generators orbit_sample makes from here on, in order."""
    made = []
    monkeypatch.setattr(moment, "generator", lambda *args: made.append(generator(*args))
                        or made[-1])
    return made


class TestStackedSamples:
    """_sliced_points draws, moves, acts on and measures the draws a sample
    still needs as one stack; every sample has the bytes of
    sequential_sample, and leaves its generator where that leaves it."""

    @pytest.mark.parametrize("tag", ["DiagPositive", "TorusCentralizer", "DerivationCentralizer"])
    @pytest.mark.parametrize("bracket,derivation", [case[1:] for case in GRID_ALGEBRAS],
                             ids=[case[0] for case in GRID_ALGEBRAS])
    def test_same_bytes_and_stream_as_sequential_driver(self, monkeypatch, bracket,
                                                        derivation, tag):
        b = bracket()
        made = _captured_generators(monkeypatch)
        got, want = hashlib.sha256(), hashlib.sha256()
        for count in (8, 48):
            for seed in range(10):
                sample = orbit_sample(tag, b, count=count, seed=seed, derivation=derivation)
                rng = generator(seed, moment._TAG_STREAM[tag])
                ref = sequential_sample(b, count, seed, tag, derivation, rng=rng)
                assert len(sample.points) == len(ref) == count
                for (g, mv), (g1, m1) in zip(sample.points, ref):
                    got.update(g.tobytes() + mv.matrix.tobytes())
                    want.update(g1.tobytes() + m1.tobytes())
                assert _state(made[-1]) == _state(rng)
        assert got.hexdigest() == want.hexdigest()

    def test_drawer_is_the_stream_of_single_draws(self):
        """A stack of draws is the stack of single draws from the same
        stream, and leaves the generator in the same state."""
        for blocks, n in (([(0,), (1,), (2, 3), (4,)], 5), ([(0, 1, 2), (3,), (4,)], 5),
                          ([(0,), (1, 2, 3, 4, 5)], 6)):
            a, b = generator(7, 12), generator(7, 12)
            stack = _draw_block_elements(a, blocks, n, 48)
            single = np.array([draw_block_element(b, blocks, n) for _ in range(48)])
            assert stack.tobytes() == single.tobytes()
            assert _state(a) == _state(b)

    class _Scripted:
        """A generator whose normals are (0, 1e12, 0, 0), so that the 2 x 2
        block [[d1, 1e12], [0, d2]] has condition number far above 1e8, on
        the draws numbered in `bad` (one block, so one normal call a draw);
        the other values come from a real generator, drawn in any case."""

        def __init__(self, bad):
            self.rng, self.bad, self.calls = generator(3, 12), bad, 0

        def standard_normal(self, size):
            self.calls += 1
            x = self.rng.standard_normal(size)
            return np.reshape([0.0, 1e12, 0.0, 0.0], x.shape) if self.calls in self.bad else x

        def uniform(self, low, high, size=None):
            return self.rng.uniform(low, high, size)

    def test_ill_conditioned_draws_are_redrawn_in_stream_order(self):
        """Draws 2, 3 and 7 are ill-conditioned, or draws 2 to 64: the stack
        of five skips them as five single draws do, and stops after the
        last draw it keeps."""
        for bad in ({2, 3, 7}, set(range(2, 65))):
            a, b = self._Scripted(bad), self._Scripted(bad)
            stack = _draw_block_elements(a, [(0, 1)], 2, 5)
            single = np.array([draw_block_element(b, [(0, 1)], 2) for _ in range(5)])
            assert stack.tobytes() == single.tobytes()
            assert a.calls == b.calls == 5 + len(bad)
            assert _state(a.rng) == _state(b.rng)

    def test_64_ill_conditioned_draws_in_a_row_raise(self):
        for bad in (set(range(1, 65)), set(range(3, 67))):
            with pytest.raises(NumericalError, match="well-conditioned"):
                _draw_block_elements(self._Scripted(bad), [(0, 1)], 2, 4)

    @pytest.mark.parametrize("tag,derivation", [("DiagPositive", None), ("TorusCentralizer", None),
                                                ("DerivationCentralizer", D_PAIRS)])
    def test_singular_and_non_finite_rows_are_redrawn(self, monkeypatch, tag, derivation):
        """In the first stack of six, draw 2 is singular and draw 4 is NaN:
        both are redrawn, the other four kept, and the sample is
        sequential_sample's."""
        drawn = []
        draw = _draws_that_fail(monkeypatch, drawn, lambda g0: {2: "singular", 4: "nan"}.get(
            len(drawn)))
        s = orbit_sample(tag, t5(), count=6, seed=43, derivation=derivation)
        assert len(drawn) == 8
        if tag != "DiagPositive":   # each point is K g0, K orthogonal, for the draw it kept
            kept = [g0 for i, g0 in enumerate(drawn) if i not in (1, 3)]
            for (g, _), g0 in zip(s.points, kept):
                Q = g @ np.linalg.inv(g0)
                assert np.abs(Q @ Q.T - np.eye(5)).max() < 1e-9
        drawn.clear()
        want = sequential_sample(t5(), 6, 43, tag, derivation, draw)
        assert [(g.tobytes(), mv.matrix.tobytes()) for g, mv in s.points] == \
            [(g.tobytes(), m.tobytes()) for g, m in want]
        assert len(drawn) == 8

    def test_moment_checks_raise_for_the_first_bad_matrix(self):
        """The stacked checks raise what checking one MomentValue at a
        time (moment_value_checks) raised first: a lost symmetry before a
        trace on the same matrix, an earlier matrix before a later one."""
        s = orbit_sample("TorusCentralizer", t5(), count=6, seed=3)
        good = np.array([mv.matrix for _, mv in s.points])
        moment._check_moment_matrices(good)
        bends = {"symmetry": lambda m: m.__setitem__((0, 1), m[0, 1] + 1e-9),
                 "trace": lambda m: m.__setitem__((2, 2), m[2, 2] + 1e-9)}
        for marks in ([(1, "trace")], [(4, "symmetry")], [(2, "trace"), (2, "symmetry")],
                      [(3, "symmetry"), (1, "trace")], [(5, "trace"), (4, "trace")]):
            M = good.copy()
            for at, how in marks:
                bends[how](M[at])
            with pytest.raises(NumericalError) as want:
                for m in M:
                    moment_value_checks(m)
            with pytest.raises(NumericalError) as got:
                moment._check_moment_matrices(M)
            assert str(got.value) == str(want.value)
            first = min(at for at, _ in marks)
            with pytest.raises(NumericalError, match=re.escape(str(want.value))):
                moment.MomentValue(M[first])

    def test_usable_draws_are_checked_kept_or_not(self, monkeypatch):
        """A usable draw whose moment matrix has lost symmetry is off the
        slice, so it would not be kept; the sample raises all the same."""
        measure = moment._moment_matrices

        def last_bent(C):
            M = measure(C)
            M[-1, 0, 1] += 1e-9
            return M

        monkeypatch.setattr(moment, "_moment_matrices", last_bent)
        with pytest.raises(NumericalError, match="moment value lost symmetry"):
            orbit_sample("DiagPositive", t5(), count=4, seed=41)


def moment_value_checks(m):
    """MomentValue's checks on one matrix, as they ran before they ran on
    stacks."""
    if np.abs(m - m.T).max() > 1e-10:
        raise NumericalError("moment value lost symmetry")
    if abs(np.trace(m) + 1.0) > 1e-10:
        raise NumericalError(f"moment value trace {np.trace(m):.3e} is not -1")


class TestTrustRegionPort:
    """What replaced the port of scipy's trust-region solver: Gauss-Newton
    on numpy's lstsq, which stops at once on a non-finite start and loads
    no scipy module."""

    def test_non_finite_start_returns_at_once(self, monkeypatch):
        out = []
        g0 = np.diag([np.nan, 1.0, 1.0, 1.0, 1.0])
        with np.errstate(invalid="ignore"):
            calls = _residual_calls(monkeypatch, lambda: out.append(
                moment._scaled_onto_slice(t5().tensor(), g0, [(i,) for i in range(5)])))
        assert calls == 1 and not np.isfinite(out[0]).all()

    def test_orbit_sampling_loads_no_scipy_optimize(self):
        """Neither a sampled certify, whose TorusCentralizer sample is
        rotated onto the slice, nor a DiagPositive sample of tricky5, whose
        draws Gauss-Newton moves there, loads any scipy module."""
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
                "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        *_, certify, diagonal = proc.stdout.splitlines()
        assert '"Certificate"' in proc.stdout
        assert (certify, diagonal) == ("[]", "[]")

    def test_sampled_cone_section_loads_no_scipy(self):
        """Acceptance 10's cone command, a sampled section of tricky5 whose
        20 support probes the float simplex in cone.py solves, loads no
        scipy module (it loaded 321 with HiGHS)."""
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parent.parent / "src")
        env["PYTHONPATH"] = os.pathsep.join(
            [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        code = ("import sys; from rnlie.cli import main; "
                "main(['cone', '--algebra', 'tricky5', '--trace-level', '1', "
                "'--resolution', '12', '--seed', '5']); "
                "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert '"SampledInner"' in proc.stdout
        assert proc.stdout.splitlines()[-1] == "[]"
