import os
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import expm
from scipy.optimize import least_squares

from rnlie import _trf, moment
from rnlie.brackets import Bracket, BasisChange, act
from rnlie.corpus import corpus
from rnlie.curvature import ricci_nilpotent
from rnlie.errors import PreconditionError
from rnlie.moment import (_acted_moment_matrix,
                          _draw_block_element, _exp_directions, _group_blocks,
                          _metric_factors, _steered,
                          _steering_jacobian, closure_faces, moment_map,
                          nice_basis_check, orbit_sample, unpack_blocks,
                          weight_coordinates, weight_matrix, weight_polytope)

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


def reference_steer(b, g0, blocks, rng, attempts=3, tol=1e-11):
    """Orbit steering with least_squares taking its Jacobian by finite
    differences: the residual, parametrisation and tolerances of
    _steer_to_diagonal, with a full-matrix expm for each element."""
    n = b.dim
    C = b.tensor()
    iu = np.triu_indices(n, 1)
    size = sum(len(blk) ** 2 for blk in blocks)

    def element(x):
        return expm(unpack_blocks(x, blocks, n)) @ g0

    def resid(x):
        return _acted_moment_matrix(C, element(x))[iu]

    if np.abs(resid(np.zeros(size))).max() <= tol:
        return g0
    for attempt in range(attempts):
        x0 = np.zeros(size) if attempt == 0 else 0.3 * rng.standard_normal(size)
        with np.errstate(invalid="ignore", divide="ignore"):
            res = least_squares(resid, x0, xtol=3e-16, ftol=3e-16, gtol=None,
                                max_nfev=300)
        if np.abs(resid(res.x)).max() <= tol:
            return element(res.x)
    return None


# (group tag, derivation, size of the largest centralizer block)
STEERING_GROUPS = [
    ("DiagPositive", None, 1),
    ("TorusCentralizer", None, 2),
    ("DerivationCentralizer", np.diag([1.0, 0.0, 1.0, 1.0, 2.0]), 3),
]


class TestSteering:
    @pytest.mark.parametrize("tag,derivation,largest", STEERING_GROUPS,
                             ids=[tag for tag, _, _ in STEERING_GROUPS])
    def test_jacobian_matches_central_differences(self, tag, derivation, largest):
        b = t5()
        C, n = b.tensor(), b.dim
        blocks = _group_blocks(tag, b, derivation)
        assert max(len(blk) for blk in blocks) == largest
        size = sum(len(blk) ** 2 for blk in blocks)
        iu = np.triu_indices(n, 1)
        rng = np.random.default_rng(41)
        step = 1e-6
        for trial in range(6):
            g0 = _draw_block_element(rng, blocks, n)
            x = np.zeros(size) if trial < 2 else 0.3 * rng.standard_normal(size)
            J = _steering_jacobian(C, g0, blocks, x)
            assert J.shape == (len(iu[0]), size)
            for k in range(size):
                e = np.zeros(size)
                e[k] = step
                central = (_acted_moment_matrix(C, _steered(g0, blocks, x + e))[iu]
                           - _acted_moment_matrix(C, _steered(g0, blocks, x - e))[iu])
                assert np.abs(J[:, k] - central / (2 * step)).max() \
                    <= 1e-6 * np.abs(J).max()

    @pytest.mark.parametrize("seeds,count", [(range(17, 27), 8), ((123,), 40)],
                             ids=["seeds17-26", "seed123"])
    def test_same_draws_as_finite_difference_reference(self, monkeypatch,
                                                       seeds, count):
        analytic = moment._steer_to_diagonal

        def sample(steer, seed):
            kept = []

            def recording(*args, **kwargs):
                g = steer(*args, **kwargs)
                kept.append(g is not None)
                return g

            monkeypatch.setattr(moment, "_steer_to_diagonal", recording)
            return orbit_sample("TorusCentralizer", t5(), count=count,
                                seed=seed), kept

        for seed in seeds:
            new, new_kept = sample(analytic, seed)
            ref, ref_kept = sample(reference_steer, seed)
            assert new_kept == ref_kept
            assert np.abs(new.diagonals() - ref.diagonals()).max() < 1e-5


def _numpy_sums(monkeypatch):
    """Give the trust-region port the numpy reductions of scipy's
    solve_lsq_trust_region in place of its Python-float sums."""
    def phi(alpha, suf, s2, delta):
        suf, denom = np.array(suf), np.array(s2) + alpha
        p_norm = np.linalg.norm(suf / denom)
        return p_norm - delta, -np.sum(suf ** 2 / denom ** 3) / p_norm

    monkeypatch.setattr(_trf, "_norm", np.linalg.norm)
    monkeypatch.setattr(_trf, "_phi", phi)


def _paired_solves(monkeypatch):
    """Every steering solve of two tricky5 samples, made by the port and
    by scipy.optimize.least_squares on the same residual, Jacobian and
    x0: a list of (x0, port result, scipy result).  Steering goes on with
    the port's result.  The DerivationCentralizer sample (a 3 x 3 block)
    restarts some draws from a random x0."""
    runs = []
    port = moment.trf_solve

    def paired(fun, jac, x0, ftol, xtol, max_nfev):
        got = port(fun, jac, x0, ftol=ftol, xtol=xtol, max_nfev=max_nfev)
        want = least_squares(fun, x0, jac=jac, ftol=ftol, xtol=xtol, gtol=None,
                             max_nfev=max_nfev)
        runs.append((x0, got, want))
        return got

    monkeypatch.setattr(moment, "trf_solve", paired)
    orbit_sample("TorusCentralizer", t5(), count=6, seed=17)
    orbit_sample("DerivationCentralizer", t5(), count=8, seed=18,
                 derivation=np.diag([1.0, 0.0, 1.0, 1.0, 2.0]))
    return runs


def _lands(res):
    return np.abs(res.fun).max() <= 1e-11


class TestTrustRegionPort:
    def test_repeats_least_squares_with_numpy_sums(self, monkeypatch):
        _numpy_sums(monkeypatch)
        runs = _paired_solves(monkeypatch)
        assert len(runs) >= 6
        assert any(x0.any() and _lands(got) for x0, got, _ in runs)   # a restart
        for _, got, want in runs:
            assert (got.nfev, got.njev) == (want.nfev, want.njev)
            assert np.abs(got.x - want.x).max() <= 1e-12

    def test_python_sums_land_where_least_squares_lands(self, monkeypatch):
        """With its own Python-float sums the port may stop a few trials
        apart from scipy, since ftol = xtol = 3e-16 test rounding-level
        changes, but it lands on the diagonal slice exactly when scipy
        does."""
        runs = _paired_solves(monkeypatch)
        assert [_lands(got) for _, got, _ in runs] == [_lands(want) for _, _, want in runs]

    def test_singular_trial_is_a_rejected_step(self, monkeypatch):
        """A trial element act_tensor cannot invert is rejected like a
        non-finite residual: the radius drops to a quarter of the step,
        and steering still lands."""
        b = t5()
        blocks = _group_blocks("TorusCentralizer", b)
        g0 = _draw_block_element(np.random.default_rng(5), blocks, b.dim)
        points = []
        steered = moment._steered

        def singular_first_trial(g0, blocks, x):
            points.append(x.copy())
            if len(points) == 3:   # after the zero check and x0
                raise np.linalg.LinAlgError("Singular matrix")
            return steered(g0, blocks, x)

        monkeypatch.setattr(moment, "_steered", singular_first_trial)
        g = moment._steer_to_diagonal(b, g0, blocks, np.random.default_rng(6))
        assert g is not None
        assert moment_map(act(BasisChange(g), b)).offdiagonal_max() < 1e-10
        x0, first, second = points[1:4]
        assert np.linalg.norm(second - x0) == pytest.approx(
            0.25 * np.linalg.norm(first - x0), rel=1e-12)

    def test_non_finite_start_returns_at_once(self):
        res = _trf.trf_solve(lambda x: np.full(3, np.nan), None, np.ones(2),
                                     ftol=3e-16, xtol=3e-16, max_nfev=300)
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
        """The search exponentiates stacks, steering one row at a time."""
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
