from fractions import Fraction as F

import numpy as np
import pytest

from rnlie import curvature
from rnlie.brackets import Bracket, act_tensor, gram_difference
from rnlie.certify import _metric_factors
from rnlie.corpus import corpus
from rnlie.curvature import (MetricParams, _top_eigenvalues, extension_bracket,
                             is_ricci_negative, koszul_oracle, ricci_extension,
                             ricci_nilpotent, transport_metric)
from rnlie.degeneration import heintze_curve
from rnlie.derivations import derivation_space, is_derivation, require_derivation
from rnlie.errors import PreconditionError
from rnlie.moment import _metric_layout, centralizer_blocks


def h3():
    return corpus("heisenberg", 3).bracket


def abelian(n):
    return corpus("abelian", n).bracket


def oracle_gap(D, b):
    """Worst entrywise gap between the closed-form Ricci blocks and the
    oracle's symmetrised Ricci operator of the same extension."""
    R = koszul_oracle(extension_bracket(D, b)).ricci
    return float(np.abs(ricci_extension(D, b).assembled() - 0.5 * (R + R.T)).max())


class TestNilpotentRicci:
    def test_abelian_flat(self):
        assert np.abs(ricci_nilpotent(Bracket(4, {}))).max() == 0

    def test_h3_half_values(self):
        assert np.allclose(ricci_nilpotent(h3()), np.diag([-0.5, -0.5, 0.5]),
                           atol=1e-14)

    def test_trace_identity(self):
        """tr Ric = -|mu|^2 / 4 under the ordered-pair norm convention."""
        for name, param in [("heisenberg", 5), ("tricky5", None), ("filiform", 5)]:
            b = corpus(name, param).bracket
            assert np.trace(ricci_nilpotent(b)) == pytest.approx(
                -float(b.norm_sq()) / 4, abs=1e-12)

    def test_matches_oracle(self):
        for name, param in [("heisenberg", 3), ("heisenberg", 5),
                            ("tricky5", None), ("filiform", 4)]:
            b = corpus(name, param).bracket
            assert np.abs(ricci_nilpotent(b) - koszul_oracle(b).ricci).max() < 1e-12


class TestKoszulOracle:
    def test_hyperbolic_plane(self):
        rep = koszul_oracle(extension_bracket([[1]], Bracket(1, {})))
        assert rep.sectional[0, 1] == pytest.approx(-1.0)
        assert np.allclose(rep.ricci, -np.eye(2), atol=1e-14)

    def test_h3_sectional_values(self):
        rep = koszul_oracle(h3())
        assert rep.sectional[0, 1] == pytest.approx(-0.75)
        assert rep.sectional[0, 2] == pytest.approx(0.25)
        assert rep.sectional[1, 2] == pytest.approx(0.25)

    def test_abelian_flat(self):
        rep = koszul_oracle(Bracket(3, {}))
        assert np.abs(rep.riemann).max() == 0
        assert rep.scalar == 0

    def test_milnor_hyp_constant_curvature(self):
        b = corpus("milnor_hyp", 4).bracket
        rep = koszul_oracle(b)
        for i in range(4):
            for j in range(i + 1, 4):
                assert rep.sectional[i, j] == pytest.approx(-1.0, abs=1e-12)

    def test_metric_must_be_positive_definite(self):
        with pytest.raises(PreconditionError):
            koszul_oracle(h3(), metric=np.diag([1.0, -1.0, 1.0]))


class TestExtensionBlocks:
    def test_abelian_identity_is_hyperbolic(self):
        for n in (2, 3, 5):
            blk = ricci_extension(np.eye(n), Bracket(n, {}))
            assert np.allclose(blk.assembled(), -n * np.eye(n + 1), atol=1e-12)

    def test_h3_spot_spectrum(self):
        blk = ricci_extension(np.diag([1.0, 1.0, 2.0]), h3())
        assert np.allclose(sorted(blk.eigenvalues()),
                           [-7.5, -6.0, -4.5, -4.5], atol=1e-10)
        assert np.abs(blk.fn_row).max() < 1e-12
        assert oracle_gap(np.diag([1.0, 1.0, 2.0]), h3()) < 1e-9

    def test_blocks_need_no_oracle(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("ricci_extension called the oracle")

        monkeypatch.setattr("rnlie.curvature.koszul_oracle", refuse)
        blk = ricci_extension(np.diag([1.0, 1.0, 2.0]), h3())
        assert blk.lambda_max == pytest.approx(-4.5, abs=1e-10)

    def test_ff_is_never_positive(self):
        rng = np.random.default_rng(9)
        for name, param in [("heisenberg", 3), ("tricky5", None)]:
            b = corpus(name, param).bracket
            basis = derivation_space(b)
            for _ in range(10):
                D = sum(c * M for c, M in zip(rng.normal(size=len(basis)), basis))
                blk = ricci_extension(D, b)
                assert blk.ff <= 1e-12
                asm = blk.assembled()
                assert np.abs(asm - asm.T).max() < 1e-12

    def test_oracle_agreement_random_derivations(self):
        rng = np.random.default_rng(31)
        for name, param in [("heisenberg", 3), ("heisenberg", 5),
                            ("tricky5", None), ("filiform", 4)]:
            b = corpus(name, param).bracket
            basis = derivation_space(b)
            for _ in range(8):
                D = sum(c * M for c, M in zip(rng.normal(size=len(basis)), basis))
                assert oracle_gap(D, b) < 1e-9

    def test_star_vanishes_for_symmetric_derivations(self):
        # carve the symmetric slice out of the derivation space, then
        # check the closed-form blocks against the oracle on random
        # elements of it
        rng = np.random.default_rng(17)
        b = h3()
        basis = derivation_space(b)
        n = b.dim
        rows = []
        for p in range(n):
            for q in range(p + 1, n):
                rows.append([M[p, q] - M[q, p] for M in basis])
        from scipy.linalg import null_space
        sym_coeffs = null_space(np.array(rows))
        assert sym_coeffs.shape[1] >= 2
        for _ in range(20):
            c = sym_coeffs @ rng.normal(size=sym_coeffs.shape[1])
            D = sum(ci * M for ci, M in zip(c, basis))
            assert np.abs(D - D.T).max() < 1e-9
            assert oracle_gap(D, b) < 1e-9

    def test_star_vanishes_for_normal_non_symmetric(self):
        # on an abelian algebra every matrix is a derivation; a rotation
        # block plus a scaled identity is normal without being symmetric
        b = abelian(4)
        D = np.array([[1.0, -2.0, 0, 0], [2.0, 1.0, 0, 0],
                      [0, 0, 3.0, 0], [0, 0, 0, 0.5]])
        assert np.abs(D @ D.T - D.T @ D).max() < 1e-12
        assert oracle_gap(D, b) < 1e-9

    def test_rejects_non_derivation(self):
        with pytest.raises(PreconditionError):
            ricci_extension(np.eye(3), h3())


class TestTransport:
    def test_identity_is_noop(self):
        D = np.diag([1.0, 1.0, 2.0])
        Dn, bn = transport_metric(MetricParams.identity(3), D, h3())
        assert np.abs(Dn - D).max() == 0
        assert np.abs(bn.tensor() - h3().tensor()).max() == 0

    def test_pure_scale(self):
        D = np.diag([1.0, 1.0, 2.0])
        p = MetricParams(2.5, np.zeros(3), np.eye(3))
        Dn, bn = transport_metric(p, D, h3())
        assert np.allclose(Dn, 2.5 * D)
        assert np.abs(bn.tensor() - h3().tensor()).max() == 0

    def test_shear_only_changes_derivation_within_inner_class(self):
        D = np.diag([1.0, 1.0, 2.0])
        p = MetricParams(1.0, np.array([0.3, -0.2, 0.5]), np.eye(3))
        Dn, bn = transport_metric(p, D, h3())
        assert np.abs(bn.tensor() - h3().tensor()).max() == 0
        assert np.trace(Dn) == pytest.approx(np.trace(D))

    def test_spectrum_invariance(self):
        """Ricci spectrum of the transported pair equals the metric
        oracle's spectrum for the original pair."""
        rng = np.random.default_rng(7)
        b = h3()
        # a diagonal derivation and a non-normal one
        derivations = [np.diag([1.0, 1.0, 2.0]),
                       np.array([[1.0, 1.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 2.0]])]
        assert all(is_derivation(D, b) for D in derivations)
        for _ in range(10):
            p = MetricParams(float(np.exp(0.5 * rng.normal())),
                             0.5 * rng.normal(size=3),
                             np.eye(3) + 0.3 * rng.normal(size=(3, 3)))
            for D in derivations:
                Dn, bn = transport_metric(p, D, b)
                s1 = np.sort(ricci_extension(Dn, bn).eigenvalues())
                R = koszul_oracle(extension_bracket(D, b), metric=p.gram()).ricci
                s2 = np.sort(np.linalg.eigvals(R).real)
                assert np.abs(s1 - s2).max() < 1e-8
                # the dense evaluation reads the same top eigenvalue
                assert abs(is_ricci_negative(D, b, p)[1] - s2[-1]) < 1e-8

    def test_rejects_singular(self):
        with pytest.raises(PreconditionError):
            MetricParams(1.0, np.zeros(3), np.zeros((3, 3)))
        with pytest.raises(PreconditionError):
            MetricParams(0.0, np.zeros(3), np.eye(3))


class TestRicciNegative:
    def test_h3_positive_case(self):
        ok, lam = is_ricci_negative(np.diag([1.0, 1.0, 2.0]), h3())
        assert ok
        assert lam == pytest.approx(-4.5, abs=1e-10)

    def test_evaluation_builds_no_bracket(self, monkeypatch):
        b = h3()

        def refuse(*args, **kwargs):
            raise AssertionError("is_ricci_negative went through a Bracket")

        for name in ("extension_bracket", "transport_metric", "koszul_oracle", "act"):
            monkeypatch.setattr(f"rnlie.curvature.{name}", refuse)
        monkeypatch.setattr(Bracket, "__post_init__", refuse)
        ok, lam = is_ricci_negative(np.diag([1.0, 1.0, 2.0]), b)
        assert ok
        assert lam == pytest.approx(-4.5, abs=1e-10)

    def test_abelian_identity(self):
        ok, lam = is_ricci_negative(np.eye(3), Bracket(3, {}))
        assert ok
        assert lam == pytest.approx(-3.0, abs=1e-12)

    def test_one_inverse_and_no_riemann_tensor(self, monkeypatch):
        """The witness check inverts h once, for the derivation and the
        bracket, and reads the Ricci contraction, not _koszul."""
        inverses = []
        inv = np.linalg.inv

        def counted(a):
            inverses.append(np.shape(a))
            return inv(a)

        def refused(C):
            raise AssertionError("the witness check built the Riemann tensor")

        monkeypatch.setattr(np.linalg, "inv", counted)
        monkeypatch.setattr(curvature, "_koszul", refused)
        p = MetricParams(1.0, np.array([0.3, -0.2, 0.1]),
                         np.array([[1.5, 0.0, 0.0], [0.2, 0.8, 0.0], [0.0, 0.0, 1.0]]))
        ok, lam = is_ricci_negative(np.diag([1.0, 1.0, 2.0]), h3(), p)
        assert ok and inverses == [(3, 3)]

    def test_traceless_fails_under_many_metrics(self):
        """Trace-zero derivations give unimodular extensions, which never
        admit negative Ricci; sampled metrics must all fail."""
        rng = np.random.default_rng(23)
        D = np.diag([-1.0, 1.0, 0.0])
        b = h3()
        for _ in range(200):
            p = MetricParams(float(np.exp(rng.normal())),
                             rng.normal(size=3),
                             np.eye(3) + 0.5 * rng.normal(size=(3, 3)))
            ok, _lam = is_ricci_negative(D, b, p)
            assert not ok


def tensordot_act(C, H):
    """act_tensor as a tensordot chain, the form it had before it took a
    stack axis: the bit-level reference for the matmul chain."""
    Hi = np.linalg.inv(H)
    out = np.tensordot(C, H, axes=([2], [1]))
    out = np.tensordot(Hi, out, axes=([0], [0]))
    return np.tensordot(out, Hi, axes=([1], [0])).transpose(0, 2, 1)


def tensordot_gram_difference(C):
    """gram_difference as two tensordots, its form before the stack axis."""
    return (np.tensordot(C, C, axes=([0, 1], [0, 1]))
            - 2.0 * np.tensordot(C, C, axes=([1, 2], [1, 2])))


_NON_DIAGONAL = np.array([[-0.4, 0.3, 0.0], [0.0, 0.9, 0.0], [0.2, 0.0, 0.5]])
# (algebra, derivation): a 4 x 4 centralizer block on heisenberg(5), and a
# derivation that is not diagonal, besides plain diagonal ones
STACK_CASES = [
    (("heisenberg", 3), np.diag([-0.4, 0.9, 0.5])),
    (("heisenberg", 5), np.diag([-0.25, 1 / 3 + 0.25, 0.05, 1 / 3 - 0.05, 1 / 3])),
    (("heisenberg", 5), np.diag([1.0, 1.0, 1.0, 1.0, 2.0])),
    (("heisenberg", 7), np.diag([0.1, 0.15, -0.05, 0.3, 0.2, 0.05, 0.25])),
    (("filiform", 5), np.diag([0.75, -0.5, 0.25, 1.0, 1.75])),
    (("filiform", 6), np.diag([0.5, -0.25, 0.25, 0.75, 1.25, 1.75])),
    (("heisenberg", 3), _NON_DIAGONAL),
]


# the cases whose centralizer blocks are all 1 x 1
TORUS_CASES = [(alg, M) for alg, M in STACK_CASES
               if np.count_nonzero(M - np.diag(np.diag(M))) == 0
               and len(centralizer_blocks(np.diag(M))) == len(M)]


def _stack(case, rows=12, seed=0):
    """The search's view of a case: its blocks, and random packed rows
    (A blocks, then X) with the metric factors they give."""
    (name, param), M = case
    b = corpus(name, param).bracket
    require_derivation(M, b)
    n = b.dim
    diagonal = np.count_nonzero(M - np.diag(np.diag(M))) == 0
    blocks = centralizer_blocks(np.diag(M)) if diagonal else [tuple(range(n))]
    asize = _metric_layout(tuple(blocks))[2]
    rng = np.random.default_rng(seed)
    xs = 0.5 * rng.standard_normal((rows, asize + n))
    return b, M, blocks, xs, asize


def _log_diagonal(entries, blocks):
    """The packed coordinates of the factor diag(e^entries)."""
    (rows, _, at), _, width = _metric_layout(tuple(blocks))
    x = np.zeros(width)
    x[at] = np.asarray(entries)[rows]
    return x


def _evaluate(b, M, blocks, xs, asize):
    h = _metric_factors(xs[:, :asize], blocks, b.dim)
    return _top_eigenvalues(M, b.tensor(), xs[:, asize:], h)


class TestStackedEvaluation:
    def test_matmul_chains_match_tensordot_bit_for_bit(self):
        rng = np.random.default_rng(3)
        for name, param in [("heisenberg", 3), ("heisenberg", 5), ("heisenberg", 7),
                            ("filiform", 6), ("tricky5", None)]:
            C = corpus(name, param).bracket.tensor()
            n = C.shape[0]
            H = np.eye(n) + 0.4 * rng.standard_normal((9, n, n))
            stacked = act_tensor(C, H)
            grams = gram_difference(stacked)
            for k in range(len(H)):
                one = tensordot_act(C, H[k])
                assert np.array_equal(act_tensor(C, H[k]), one)
                assert np.array_equal(stacked[k], one)
                assert np.array_equal(gram_difference(one), tensordot_gram_difference(one))
                assert np.array_equal(grams[k], tensordot_gram_difference(one))

    @pytest.mark.parametrize("case", STACK_CASES)
    def test_agrees_with_koszul_evaluation(self, case):
        b, M, blocks, xs, asize = _stack(case)
        lam = _evaluate(b, M, blocks, xs, asize)
        h = _metric_factors(xs[:, :asize], blocks, b.dim)
        for x, hr, got in zip(xs, h, lam):
            want = is_ricci_negative(M, b, MetricParams(1.0, x[asize:], hr))[1]
            assert abs(got - want) <= 1e-9 * max(1.0, abs(want))

    @pytest.mark.parametrize("case", STACK_CASES)
    def test_rows_are_independent(self, case):
        b, M, blocks, xs, asize = _stack(case)
        lam = _evaluate(b, M, blocks, xs, asize)
        for k in range(len(xs)):
            assert np.array_equal(_evaluate(b, M, blocks, xs[k:k + 1], asize), lam[k:k + 1])
        # an A that overflows exp, one whose h is singular to 1e-300, and
        # one whose h is finite and regular but whose Ricci operator
        # overflows (the centre, the last index, stretched by e^400 against
        # e^-100) read inf and leave every other row as it was
        n = b.dim
        bad = xs.copy()
        bad[2, :asize] = 1e3
        bad[5, :asize] = _log_diagonal([-800.0] + [0.0] * (n - 1), blocks)
        bad[7, :asize] = _log_diagonal([-100.0] * (n - 1) + [400.0], blocks)
        got = _evaluate(b, M, blocks, bad, asize)
        assert got[2] == got[5] == got[7] == np.inf
        keep = np.ones(len(xs), bool)
        keep[[2, 5, 7]] = False
        assert np.array_equal(got[keep], lam[keep])

    @pytest.mark.parametrize("case", [
        TORUS_CASES[0],
        (("heisenberg", 5), np.diag([1.0, -1.0, 1.0, -1.0, 0.0])),
        STACK_CASES[2],
        STACK_CASES[-1],
    ])
    def test_rows_are_independent_at_lockstep_sizes(self, case):
        """A lockstep round of the metric search stacks the sweeps of up
        to eight descents.  At 256 rows, a stack of torus diagonals, of
        2 x 2 and of 4 x 4 centralizer blocks, and of a non-diagonal
        derivation each read, row by row, the bytes of the row alone.  So
        do they with invalid rows mixed in, which read inf."""
        b, M, blocks, xs, asize = _stack(case, rows=256, seed=1)
        C = b.tensor()
        n = b.dim

        def values(rows):
            # the factors the search passes: diagonals on the torus
            A = rows[:, :asize]
            with np.errstate(all="ignore"):
                h = np.exp(A) if asize == n else _metric_factors(A, blocks, n)
            return _top_eigenvalues(M, C, rows[:, asize:], h)

        lam = values(xs)
        for k in range(len(xs)):
            assert values(xs[k:k + 1]).tobytes() == lam[k:k + 1].tobytes()
        # h that overflows, h singular to 1e-300, and a finite regular h
        # whose Ricci operator overflows read inf; of three factors in the
        # band next to |det h| = 1e-300, which det decides, the one 1e-12
        # below in log det reads inf and the one 1e-12 above does not
        edge = np.log(1e-300) / n
        invalid = [(np.full(asize, 1e3), True),
                   (_log_diagonal([-800.0] + [0.0] * (n - 1), blocks), True),
                   (_log_diagonal([-100.0] * (n - 1) + [400.0], blocks), True)]
        band = [(_log_diagonal([edge + t] + [edge] * (n - 1), blocks), inf)
                for t, inf in ((-1e-12, True), (0.0, None), (1e-12, False))]
        # a stack whose factors are all valid but whose Ricci operator
        # overflows in some rows, and one with every kind of row
        for kinds in ([invalid[2]], invalid + band):
            rows = xs.copy()
            at = np.arange(5, len(rows), 37)
            for k, r in enumerate(at):
                rows[r, :asize] = kinds[k % len(kinds)][0]
            got = values(rows)
            valid = np.ones(len(rows), bool)
            valid[at] = False
            assert got[valid].tobytes() == lam[valid].tobytes()
            for k, r in enumerate(at):
                assert got[r:r + 1].tobytes() == values(rows[r:r + 1]).tobytes()
                inf = kinds[k % len(kinds)][1]
                if inf is not None:
                    assert (got[r] == np.inf) == inf

    @pytest.mark.parametrize("case", TORUS_CASES)
    def test_torus_diagonals_match_dense_factors(self, case):
        """With 1 x 1 blocks the (K, n) diagonals of the factors give the
        bytes of the dense (K, n, n) factors, the inf rows of the three
        guards included, and so does a factor with det h at 1e-300."""
        b, M, blocks, xs, asize = _stack(case, rows=40)
        n = b.dim
        assert asize == n
        xs[2, :n] = 1e3
        xs[5, :n] = [-800.0] + [0.0] * (n - 1)
        xs[7, :n] = [-100.0] * (n - 1) + [400.0]
        xs[9, :n] = np.log(1e-300) / n
        h = _metric_factors(xs[:, :n], blocks, n)
        d = np.diagonal(h, axis1=1, axis2=2).copy()
        dense = _top_eigenvalues(M, b.tensor(), xs[:, n:], h)
        torus = _top_eigenvalues(M, b.tensor(), xs[:, n:], d)
        assert dense[2] == dense[5] == dense[7] == np.inf
        assert np.isfinite(np.delete(dense, [2, 5, 7])).all()
        assert torus.tobytes() == dense.tobytes()

    @pytest.mark.parametrize("case", TORUS_CASES)
    def test_clearly_nonsingular_stacks_skip_the_checks(self, case, monkeypatch):
        """A stack of torus diagonals that are finite and whose n log min|h|
        lies 1 above log(1e-300) skips the log-det checks; one row just
        below that bound sends its whole stack through them.  Either way
        every row reads the bytes it reads alone, and the bytes the checks
        give, which the dense factors give too."""
        b, M, blocks, xs, asize = _stack(case, rows=40, seed=2)
        n = b.dim
        C = b.tensor()
        bound = (curvature._LOG_SINGULAR + 1.0) / n
        above = xs.copy()
        above[3, :n] = [bound + 1e-6] + [0.0] * (n - 1)
        below = xs.copy()
        below[3, :n] = [bound - 1e-6] + [0.0] * (n - 1)

        def values(rows):
            return _top_eigenvalues(M, C, rows[:, n:], np.exp(rows[:, :n]))

        for rows, fast in ((xs, True), (above, True), (below, False)):
            assert curvature._clearly_nonsingular(np.exp(rows[:, :n])) is fast
            got = values(rows)
            assert np.isfinite(got).all()
            for k in range(len(rows)):
                assert values(rows[k:k + 1]).tobytes() == got[k:k + 1].tobytes()
            h = _metric_factors(rows[:, :n], blocks, n)
            assert _top_eigenvalues(M, C, rows[:, n:], h).tobytes() == got.tobytes()
            with monkeypatch.context() as m:
                m.setattr(curvature, "_clearly_nonsingular", lambda d: False)
                assert values(rows).tobytes() == got.tobytes()

    def test_clearly_nonsingular_refuses_what_the_checks_decide(self):
        """Zero, non-finite, negative and tiny factors, and the empty row,
        are left to the checks; so is a tiny factor that a huge one makes
        up for, since only the smallest factor is read.  A stack with a
        negative factor reads, through the checks, the bytes of its dense
        factors."""
        bound = curvature._LOG_SINGULAR + 1.0
        for d in ([[1.0, 0.0]], [[1.0, np.nan]], [[np.inf, 1.0]], [[1.0, -np.inf]],
                  [[np.exp(bound / 2 - 1e-6)] * 2], [[1e200, 1e-200]], [[-1e100, 1e-100]],
                  [[-2.0, -2.0]], np.zeros((2, 0))):
            assert not curvature._clearly_nonsingular(np.array(d, dtype=float))
        for d in ([[np.exp(bound / 2 + 1e-6)] * 2], [[1e100, 1e-100]], np.zeros((0, 3))):
            assert curvature._clearly_nonsingular(np.array(d, dtype=float))
        b = corpus("heisenberg", 3).bracket
        M = np.diag([1.0, 1.0, 2.0])
        d = np.array([[-1.0, 2.0, -2.0], [0.5, -1.5, 3.0], [2.0, 1.0, 0.5]])
        X = 0.3 * np.ones((3, 3))
        dense = _top_eigenvalues(M, b.tensor(), X, d[:, :, None] * np.eye(3))
        assert _top_eigenvalues(M, b.tensor(), X, d).tobytes() == dense.tobytes()


class TestOneInverse:
    """The dense evaluator inverts each factor once, for the derivation
    and the action on C alike; the diagonal torus inverts none."""

    @pytest.fixture
    def inverses(self, monkeypatch):
        shapes = []
        inv = np.linalg.inv

        def counted(a):
            shapes.append(np.shape(a))
            return inv(a)

        monkeypatch.setattr(np.linalg, "inv", counted)
        return shapes

    @pytest.mark.parametrize("case", STACK_CASES)
    def test_one_inverse_per_dense_call(self, case, inverses):
        b, M, blocks, xs, asize = _stack(case, rows=9)
        h = _metric_factors(xs[:, :asize], blocks, b.dim)
        _top_eigenvalues(M, b.tensor(), xs[:, asize:], h)
        assert inverses == [h.shape]

    @pytest.mark.parametrize("case", TORUS_CASES)
    def test_no_inverse_on_the_torus(self, case, inverses):
        b, M, blocks, xs, asize = _stack(case, rows=9)
        _top_eigenvalues(M, b, xs[:, asize:], np.exp(xs[:, :asize]))
        assert inverses == []

    def test_searches_invert_once_per_dense_call(self, monkeypatch, inverses):
        """A search with a 2 x 2 centralizer block makes one inverse per
        evaluator call, and the witness check one more; a search on 1 x 1
        blocks that ends without a witness makes none."""
        from rnlie import certify

        calls = []
        inner = certify._top_eigenvalues

        def counted(*args):
            calls.append(len(args[2]))
            return inner(*args)

        monkeypatch.setattr(certify, "_top_eigenvalues", counted)
        found = certify.search_rn_metric(np.diag([1.0, 1.0, 2.0]), h3(), budget=50, seed=1)
        assert isinstance(found, certify.RnWitness)
        assert len(inverses) == len(calls) + 1
        inverses.clear()
        failed = certify.search_rn_metric(np.diag([-1.0, 1.0, 0.0]), h3(), budget=500, seed=1)
        assert isinstance(failed, certify.SearchFailure) and inverses == []


def reference_ricci_operators(M, C):
    """The Ricci operators of the pairs (M, C), over any leading stack
    axes, as _ricci_blocks and _assembled composed them before one kernel
    wrote the stack in place, gram_difference with its np.swapaxes
    copies included: the bit-level reference for _ricci_stack."""
    n = C.shape[-1]
    Mt = np.swapaxes(M, -1, -2)
    S = 0.5 * (M + Mt)
    pairs_out = C.reshape(C.shape[:-3] + (n * n, n))
    out_pairs = C.reshape(C.shape[:-3] + (n, n * n))
    targets = np.ascontiguousarray(np.swapaxes(pairs_out, -1, -2)) @ pairs_out
    sources = out_pairs @ np.ascontiguousarray(np.swapaxes(out_pairs, -1, -2))
    ff = -np.trace(S @ S, axis1=-2, axis2=-1)
    nn = (0.25 * (targets - 2.0 * sources) + 0.5 * (M @ Mt - Mt @ M)
          - np.trace(M, axis1=-2, axis2=-1)[..., None, None] * S)
    fn = 0.0 - (out_pairs @ S.reshape(S.shape[:-2] + (n * n, 1)))[..., 0]
    out = np.zeros(nn.shape[:-2] + (n + 1, n + 1))
    out[..., 0, 0] = ff
    out[..., 0, 1:] = fn
    out[..., 1:, 0] = fn
    out[..., 1:, 1:] = nn
    return out


def _witness_tensors():
    """The transported extension tensors of the witnesses of acceptance
    05 (certified sweep cases) and 07 (the heisenberg(5) octagon points),
    searched with those tests' seeds."""
    from test_acceptance import (_H5_WITNESS_POINTS, _h5_entries, _sweep_cases,
                                 certify_srn_nice, certify_srn_sampled, orbit_sample)

    from rnlie.certify import RnWitness, SrnCertificate, search_rn_metric
    from rnlie.derivations import derivation_matrix

    runs = []
    for idx, (route, b, D) in enumerate(_sweep_cases()):
        try:
            if route == "nice":
                cert = certify_srn_nice(D, b)
            else:
                cert = certify_srn_sampled(D, b, orbit_sample("TorusCentralizer", b, count=24,
                                                              seed=900 + idx))
        except PreconditionError:
            continue
        if isinstance(cert, SrnCertificate):
            runs.append((np.array([[float(v) for v in row] for row in D]), b, 1000 + idx))
    h5 = corpus("heisenberg", 5).bracket
    for idx, (a1, a3) in enumerate(_H5_WITNESS_POINTS):
        runs.append((np.diag([float(e) for e in _h5_entries(a1, a3)]), h5, 700 + idx))
    tensors = []
    for D, b, seed in runs:
        found = search_rn_metric(D, b, seed=seed)
        assert isinstance(found, RnWitness)
        tensors.append(curvature._extension_tensor(derivation_matrix(D, b.dim), b, found.params))
    return tensors


class TestKoszulRicci:
    """The Ricci operator contracted from the connection, entrywise
    against the one read off _koszul's Riemann tensor."""

    @staticmethod
    def _agrees(E):
        want = curvature._koszul(E)[1]
        got = curvature._koszul_ricci(E)
        assert got.shape == want.shape
        assert np.abs(got - want).max() <= 1e-12 * max(1.0, np.abs(want).max())

    @pytest.mark.parametrize("m", range(1, 10))
    def test_random_antisymmetric_tensors(self, m):
        rng = np.random.default_rng(3500 + m)
        for _ in range(5):
            A = rng.standard_normal((m, m, m))
            self._agrees(A - A.transpose(1, 0, 2))

    def test_witness_tensors_of_acceptance_05_and_07(self):
        tensors = _witness_tensors()
        assert len(tensors) > 2
        for E in tensors:
            self._agrees(E)


class TestRicciStack:
    """The one kernel that writes the Ricci stack, byte for byte against
    the block composition it replaced."""

    @pytest.mark.parametrize("rows", [1, 7, 64, 256])
    @pytest.mark.parametrize("case", STACK_CASES)
    def test_same_bytes_as_the_block_composition(self, case, rows):
        """Dense pairs of full factors, and torus pairs of diagonals,
        from one row to the lockstep sizes; every fifth row of the torus
        stacks has h overflowing, h underflowing to 0, or a Ricci
        operator that overflows, and so do the dense stacks with the
        last kind, which finite regular factors can give."""
        b, M, blocks, xs, asize = _stack(case, rows=rows, seed=rows)
        n = b.dim
        C = b.tensor()
        bad = [np.full(asize, 1e3), _log_diagonal([-800.0] + [0.0] * (n - 1), blocks),
               _log_diagonal([-100.0] * (n - 1) + [400.0], blocks)]
        with np.errstate(all="ignore"):
            dense = xs.copy()
            dense[::5, :asize] = bad[2]
            h = _metric_factors(dense[:, :asize], blocks, n)
            pairs = [(curvature._transported_derivation(M, C, 1.0, dense[:, asize:], h),
                      act_tensor(C, h))]
            if asize == n:
                torus = xs.copy()
                for k, r in enumerate(range(0, rows, 5)):
                    torus[r, :n] = bad[k % 3]
                pairs.append(curvature._torus_transport(M, C, torus[:, n:], np.exp(torus[:, :n])))
            for Dn, hC in pairs:
                want = reference_ricci_operators(Dn, hC)
                assert not np.isfinite(want[0]).all()
                assert curvature._ricci_stack(Dn, hC).tobytes() == want.tobytes()

    @pytest.mark.parametrize("case", STACK_CASES)
    def test_ricci_extension_keeps_its_bytes(self, case):
        """ff, fn_row and nn of ricci_extension, on the case's pair and on
        pairs transported by random metrics, are the reference's bytes."""
        (name, param), M = case
        b = corpus(name, param).bracket
        rng = np.random.default_rng(5)
        pairs = [(M, b)]
        for _ in range(3):
            n = b.dim
            p = MetricParams(1.0, rng.normal(size=n), np.eye(n) + 0.3 * rng.normal(size=(n, n)))
            pairs.append(transport_metric(p, M, b))
        for D, bracket in pairs:
            blk = ricci_extension(D, bracket)
            want = reference_ricci_operators(D, bracket.tensor())
            assert np.float64(blk.ff).tobytes() == want[0, 0].tobytes()
            assert blk.fn_row.tobytes() == want[0, 1:].tobytes()
            assert blk.nn.tobytes() == want[1:, 1:].tobytes()
            assert blk.assembled().tobytes() == want.tobytes()


class TestVectorDerivation:
    """A derivation given as its vector of diagonal entries reads as the
    diagonal matrix; any other shape is refused."""

    def test_is_ricci_negative(self):
        b = h3()
        p = MetricParams(1.3, np.array([0.2, -0.1, 0.4]), np.diag([1.5, 0.7, 1.1]))
        for params in (None, p):
            assert (is_ricci_negative([1, 1, 2], b, params)
                    == is_ricci_negative(np.diag([1.0, 1.0, 2.0]), b, params))
        assert is_ricci_negative([1, 1, 2], b) == (True, pytest.approx(-4.5, abs=1e-10))

    def test_transport_metric(self):
        b = h3()
        p = MetricParams(1.3, np.array([0.2, -0.1, 0.4]), np.diag([1.5, 0.7, 1.1]))
        Dv, bv = transport_metric(p, [1, 1, 2], b)
        Dm, bm = transport_metric(p, np.diag([1.0, 1.0, 2.0]), b)
        assert Dv.shape == (3, 3) and Dv.tobytes() == Dm.tobytes()
        assert bv.tensor().tobytes() == bm.tensor().tobytes()

    def test_ricci_extension(self):
        b = h3()
        got = ricci_extension([1, 1, 2], b)
        want = ricci_extension(np.diag([1.0, 1.0, 2.0]), b)
        assert got.assembled().tobytes() == want.assembled().tobytes()

    def test_extension_bracket(self):
        b = h3()
        want = extension_bracket(np.diag([1.0, 1.0, 2.0]), b)
        assert extension_bracket([1, 1, 2], b).constants == want.constants
        assert extension_bracket(np.array([1.0, 1.0, 2.0]), b).constants == want.constants
        # int and Fraction entries with an exact t stay exact
        exact = extension_bracket([F(1, 3), 1, F(4, 3)], b, 1)
        assert exact.is_rational
        assert exact.constants == extension_bracket(
            [[F(1, 3), 0, 0], [0, 1, 0], [0, 0, F(4, 3)]], b, 1).constants
        # so do the entries of an integer array
        ints = extension_bracket(np.array([1, 1, 2]), b, 1)
        assert ints.is_rational and ints.constants == want.constants

    @pytest.mark.parametrize("D", [[1.0, 2.0], np.eye(2), np.ones((3, 4)), np.ones((3, 3, 3))])
    def test_wrong_shape_raises(self, D):
        b = h3()
        for call in (lambda: is_ricci_negative(D, b),
                     lambda: transport_metric(MetricParams.identity(3), D, b),
                     lambda: ricci_extension(D, b),
                     lambda: extension_bracket(D, b),
                     lambda: heintze_curve(D, b)):
            with pytest.raises(PreconditionError):
                call()
