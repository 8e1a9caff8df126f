import itertools
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from strategies import brackets

from rnlie import _rational
from rnlie import io as rnlie_io
from rnlie.brackets import (FLOAT, RATIONAL, BasisChange, Bracket, _null_space, act,
                            act_tensor, center, cut_tensor, direct_sum, is_lie, jacobiator,
                            lower_central_series, nilpotency_step, validate_jacobi)
from rnlie.corpus import corpus
from rnlie.derivations import derivation_space
from rnlie.errors import PreconditionError


def h3():
    return Bracket(3, {(0, 1, 2): F(1)})


def tricky5():
    return Bracket(5, {(0, 1, 2): F(1), (0, 1, 3): F(1),
                       (0, 2, 4): F(1), (0, 3, 4): F(1)})


class TestValidation:
    def test_rejects_bad_index_order(self):
        with pytest.raises(PreconditionError):
            Bracket(3, {(1, 0, 2): F(1)})

    def test_rejects_out_of_range(self):
        with pytest.raises(PreconditionError):
            Bracket(2, {(0, 1, 2): F(1)})

    def test_drops_zero_constants(self):
        b = Bracket(3, {(0, 1, 2): F(0)})
        assert b.constants == {}

    def test_scalar_kind_coercion(self):
        b = Bracket(3, {(0, 1, 2): 0.5}, scalar_kind="float")
        assert isinstance(b.constants[(0, 1, 2)], float)


class TestReadOnlyConstants:
    """The constants are a read-only view, so a corpus entry shared by
    every caller cannot be changed by one of them."""

    def test_item_assignment_raises(self):
        constants = corpus("tricky5").bracket.constants
        with pytest.raises(TypeError):
            constants[(0, 1, 2)] = F(2)
        with pytest.raises(TypeError):
            del constants[(0, 1, 2)]
        assert corpus("tricky5").bracket.constants[(0, 1, 2)] == 1

    def test_derived_brackets_are_equal(self):
        b = corpus("tricky5").bracket
        plain = Bracket(5, dict(b.constants))
        assert b == plain and plain == b
        assert act(BasisChange.diagonal([1] * 5), b) == plain
        assert b.to_float() == Bracket(5, {t: float(c) for t, c in plain.constants.items()},
                                       FLOAT)
        assert b.scaled(F(1, 3)) == Bracket(5, {t: c / 3 for t, c in plain.constants.items()})
        assert b.restricted([(0, 1, 2)]) == Bracket(5, {(0, 1, 2): F(1)})
        assert rnlie_io.loads_algebra(rnlie_io.dumps_algebra(b)) == b


class TestPerBracketCaches:
    """The float data a search reads of its bracket is built once per
    Bracket instance and kept on it."""

    def test_tensor_built_once_and_read_only(self):
        for b in (tricky5(), corpus("heisenberg", 5).bracket.to_float()):
            C = b.tensor()
            assert b.tensor() is C
            assert not C.flags.writeable
            with pytest.raises(ValueError):
                C[0, 1, 2] = 5.0
            assert C.tobytes() == b._filled(np.zeros((b.dim,) * 3), float).tobytes()

    def test_derived_brackets_get_their_own_tensor(self):
        b = tricky5()
        C = b.tensor()
        for other in (act(np.diag([1.0, 2.0, 1.0, 1.0, 3.0]), b), b.scaled(F(2)),
                      b.restricted([(0, 1, 2)]), b.to_float()):
            got = other.tensor()
            assert got is not C and not got.flags.writeable
            assert got.tobytes() == other._filled(np.zeros((5,) * 3), float).tobytes()
        assert b.tensor() is C

    def test_memoized_norm_bits(self):
        from rnlie.brackets import _norm

        for b in (tricky5(), tricky5().scaled(F(1, 3)), corpus("filiform", 6).bracket,
                  Bracket(3, {(0, 1, 2): 0.1, (0, 2, 1): 1e-3}, FLOAT), Bracket(4, {})):
            want = float(np.sqrt(float(b.norm_sq())))
            assert np.float64(_norm(b)).tobytes() == np.float64(want).tobytes()
            assert _norm(b) is _norm(b)

    def test_two_searches_build_the_support_once(self, monkeypatch):
        from rnlie import brackets
        from rnlie.certify import RnWitness, SearchFailure, search_rn_metric

        found = []
        inner = brackets._nonzero_entries

        def counted(C):
            found.append(C.shape)
            return inner(C)

        monkeypatch.setattr(brackets, "_nonzero_entries", counted)
        b = h3()
        assert isinstance(search_rn_metric(np.diag([-0.4, 0.9, 0.5]), b, seed=1), RnWitness)
        assert isinstance(search_rn_metric(np.diag([-1.0, 1.0, 0.0]), b, budget=300, seed=1),
                          SearchFailure)
        assert found == [(3, 3, 3)]
        i, j, k, c = brackets._tensor_support(b)
        assert not c.flags.writeable and c.tolist() == [1.0, -1.0]
        assert (i.tolist(), j.tolist(), k.tolist()) == ([0, 1], [1, 0], [2, 2])


class TestJacobi:
    def test_h3_exact_zero(self):
        assert validate_jacobi(h3()) == 0

    def test_tricky5_exact_zero(self):
        assert validate_jacobi(tricky5()) == 0

    def test_violation_detected(self):
        # [e1,e2]=e3, [e2,e3]=e4, [e1,e4]=e2: the cyclic sum on (e1,e2,e3)
        # picks up [e4,e1] = -e2 and nothing cancels it
        bad = Bracket(4, {(0, 1, 2): F(1), (1, 2, 3): F(1), (0, 3, 1): F(1)})
        assert validate_jacobi(bad) != 0
        assert not is_lie(bad)

    def test_jacobiator_pinpoints_triple(self):
        bad = Bracket(4, {(0, 1, 2): F(1), (1, 2, 3): F(1), (0, 3, 1): F(1)})
        vals = jacobiator(bad, 0, 1, 2)
        assert any(v != 0 for v in vals)


class TestNorm:
    def test_single_bracket_norm_is_two(self):
        """Ordered-pair summation gives |mu_ijk|^2 = 2."""
        assert h3().norm_sq() == F(2)

    def test_norm_scales_quadratically(self):
        assert h3().scaled(F(3)).norm_sq() == F(18)


class TestSeries:
    def test_h3(self):
        assert lower_central_series(h3()) == [3, 1, 0]
        assert nilpotency_step(h3()) == 2

    def test_tricky5_derived_series_dims(self):
        # brackets only ever produce the sum e3+e4, so the first term
        # is span{e3+e4, e5} of dimension 2
        assert lower_central_series(tricky5()) == [5, 2, 1, 0]
        assert nilpotency_step(tricky5()) == 3

    def test_abelian(self):
        assert lower_central_series(Bracket(4, {})) == [4, 0]

    def test_not_nilpotent(self):
        solv = Bracket(2, {(0, 1, 1): F(1)})
        assert nilpotency_step(solv) is None


class TestCenter:
    def test_h3_center(self):
        Z = center(h3())
        assert Z.shape[1] == 1
        assert abs(abs(Z[2, 0]) - 1) < 1e-12

    def test_tricky5_center_is_two_dimensional(self):
        # e3 - e4 commutes with everything because [e1, e3] = [e1, e4]
        Z = center(tricky5())
        assert Z.shape[1] == 2
        v = np.array([0, 0, 1, -1, 0]) / np.sqrt(2)
        proj = Z @ (Z.T @ v)
        assert np.allclose(proj, v, atol=1e-10)


class TestFloatSeries:
    """The float lower central series cuts each step's rank against the
    bracket's scale, so on brackets given in a non-nice basis the
    rounding noise of products that vanish is no rank: the series ends,
    and at the exact dimensions."""

    def test_noise_past_the_last_step_is_no_rank(self):
        b = Bracket(5, {(0, 1, 2): F(-1), (0, 1, 3): F(-1), (0, 2, 3): F(-2)})
        assert lower_central_series(b) == lower_central_series(b.to_float()) == [5, 2, 1, 0]

    def test_float_images_read_the_exact_series(self):
        rng = np.random.default_rng(49)
        entries = [corpus("heisenberg", 3), corpus("heisenberg", 5), corpus("filiform", 4),
                   corpus("filiform", 5), corpus("tricky5")]
        for _ in range(8):
            for e in entries:
                n = e.dim
                g = rng.integers(-3, 4, size=(n, n))
                while round(np.linalg.det(g)) == 0:
                    g = rng.integers(-3, 4, size=(n, n))
                exact = act(BasisChange([[F(int(x)) for x in row] for row in g]), e.bracket)
                image = act(BasisChange(g.astype(float)), e.bracket.to_float())
                want = lower_central_series(e.bracket)
                assert lower_central_series(exact) == want
                assert lower_central_series(image) == want
                assert nilpotency_step(image) == e.step


def full_svd_null_space(A):
    """The reference for _null_space: the same cut, with the full U of
    every matrix."""
    _, s, vh = np.linalg.svd(A, full_matrices=True)
    tol = np.amax(s, initial=0.0) * np.finfo(s.dtype).eps * max(A.shape)
    return vh[np.count_nonzero(s > tol):].T


class TestNullSpace:
    """The float kernels of center and derivation_space come from numpy's
    SVD with scipy.linalg.null_space's default cut; scipy stays the
    reference here."""

    @staticmethod
    def _projector(Z):
        return Z @ Z.T

    def test_same_kernel_as_scipy(self):
        from scipy.linalg import null_space

        # 1e-14 sits above the cut 3 * eps * s_max and 1e-17 below it
        near_cut = np.diag([1.0, 1e-14, 1e-17])
        assert _null_space(near_cut).shape == null_space(near_cut).shape == (3, 1)
        rng = np.random.default_rng(23)
        for name, param in [("heisenberg", 5), ("filiform", 6), ("tricky5", None),
                            ("milnor_hyp", 4), ("euclid3", None), ("abelian", 3)]:
            b = corpus(name, param).bracket
            n = b.dim
            for _ in range(4):
                g = np.eye(n) + 0.3 * rng.standard_normal((n, n))
                C = act(BasisChange(g), b).tensor()
                A = C.transpose(1, 2, 0).reshape(-1, n)
                for M in (A, np.vstack([A, A[:2] + A[-2:]]), np.zeros((4, n))):
                    got, ref = _null_space(M), null_space(M)
                    assert got.shape == ref.shape
                    assert np.allclose(got.T @ got, np.eye(got.shape[1]), atol=1e-12)
                    assert np.allclose(self._projector(got), self._projector(ref),
                                       atol=1e-12)

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_non_finite_constants_are_refused(self, bad):
        """The bracket refuses a non-finite constant in either scalar kind,
        naming its triple, so no kernel sees one (Fraction(inf) would raise
        a bare OverflowError, Fraction(nan) a ValueError).  _null_space
        refuses non-finite entries on its own: scipy did too
        (check_finite), and numpy's SVD does not return on some matrices
        with an infinite entry."""
        for kind in (FLOAT, RATIONAL):
            with pytest.raises(PreconditionError, match=r"non-finite .* \(0, 1, 2\)"):
                Bracket(3, {(0, 1, 2): bad}, kind)
        with pytest.raises(PreconditionError, match="non-finite"):
            _null_space(np.array([[1.0, bad], [0.0, 1.0]]))

    def test_reduced_svd_keeps_the_bytes(self, monkeypatch):
        """Only a wide matrix asks for the full U.  The float derivation
        bases keep their bytes; abelian brackets have a zero Leibniz
        matrix and never reach the kernel, so wide matrices (m < n) are
        checked on _null_space itself."""
        from rnlie import derivations

        entries = ([("heisenberg", m) for m in (3, 5, 7, 9, 15)]
                   + [("filiform", m) for m in (4, 6, 8, 14)]
                   + [("tricky5", None), ("abelian", 2), ("abelian", 3)])
        got = [derivation_space(corpus(name, p).bracket) for name, p in entries]
        monkeypatch.setattr(derivations, "_null_space", full_svd_null_space)
        for (name, p), basis in zip(entries, got):
            want = derivation_space(corpus(name, p).bracket)
            assert len(basis) == len(want)
            assert all(x.tobytes() == y.tobytes() for x, y in zip(basis, want))
        rng = np.random.default_rng(31)
        for m, n in [(1, 2), (2, 4), (2, 5), (3, 7), (4, 4), (6, 3)]:
            A = rng.integers(-2, 3, size=(m, n)).astype(float)
            A[:, -1] = A[:, 0]   # equal columns: a kernel in every shape
            assert _null_space(A).shape == full_svd_null_space(A).shape
            assert _null_space(A).tobytes() == full_svd_null_space(A).tobytes()

    def test_float_center_matches_exact(self):
        rng = np.random.default_rng(29)
        for b in (h3(), tricky5(), corpus("heisenberg", 5).bracket):
            n = b.dim
            g = np.eye(n) + np.triu(rng.integers(-2, 3, size=(n, n)), 1)
            exact = center(act(BasisChange([[F(int(x)) for x in row] for row in g]), b))
            approx = center(act(BasisChange(g.astype(float)), b.to_float()))
            assert approx.shape == exact.shape
            assert np.allclose(self._projector(approx), self._projector(exact), atol=1e-10)

    def test_float_derivations_span_the_exact_ones(self):
        for b in (h3(), tricky5(), corpus("filiform", 5).bracket):
            n = b.dim
            flat = np.array([D.ravel() for D in derivation_space(b)]).T
            exact = np.array([[float(x) for row in D for x in row]
                              for D in derivation_space(b, scalars="rational")]).T
            q, _ = np.linalg.qr(exact)
            assert flat.shape == (n * n, q.shape[1])
            assert np.allclose(self._projector(flat), self._projector(q), atol=1e-10)


class TestAction:
    def test_diagonal_scaling_law(self):
        h = BasisChange.diagonal([F(2), F(3), F(5)])
        out = act(h, h3())
        assert out.constants[(0, 1, 2)] == F(5, 6)

    def test_left_action_property(self):
        rng = np.random.default_rng(11)
        b = tricky5().to_float()
        for _ in range(5):
            g = np.eye(5) + 0.2 * rng.normal(size=(5, 5))
            k = np.eye(5) + 0.2 * rng.normal(size=(5, 5))
            lhs = act(BasisChange(g @ k), b)
            rhs = act(BasisChange(g), act(BasisChange(k), b))
            assert np.abs(lhs.tensor() - rhs.tensor()).max() < 1e-10

    @pytest.mark.parametrize("H", [
        np.diag([1e-200, 1e-200, 1e200]),
        np.array([[1e300, 1e300, 0.0], [0.0, 1e-300, 0.0], [0.0, 0.0, 1e308]]),
    ])
    def test_overflowing_action_refused(self, H):
        # the first used to leave an infinite constant, the second the
        # zero bracket: an infinite largest constant cut every other one
        with np.errstate(all="ignore"), pytest.raises(PreconditionError, match="overflows"):
            act(BasisChange(H), h3().to_float())
        out = act(BasisChange(np.diag([1e-100, 1e-100, 1e100])), h3().to_float())
        assert out.constants == {(0, 1, 2): 1e300}

    def test_exact_round_trip(self):
        h = BasisChange([[F(1), F(1), F(0)], [F(0), F(1), F(0)], [F(0), F(0), F(1)]])
        hinv = BasisChange([[F(1), F(-1), F(0)], [F(0), F(1), F(0)], [F(0), F(0), F(1)]])
        b = act(hinv, act(h, h3()))
        assert b.constants == h3().constants

    def test_float_path_matches_exact(self):
        rng = np.random.default_rng(5)
        for b in (tricky5(), corpus("filiform", 6).bracket):
            n = b.dim
            for _ in range(3):
                # unit triangular factors: invertible, rational, not diagonal
                lo = np.tril(rng.integers(-2, 3, size=(n, n)), -1) + np.eye(n, dtype=int)
                up = np.triu(rng.integers(-2, 3, size=(n, n)), 1) + np.eye(n, dtype=int)
                h = [[F(int(x), 2 + i) for x in row] for i, row in enumerate(lo @ up)]
                exact = act(BasisChange(h), b)
                approx = act(BasisChange(np.array(h, dtype=float)), b.to_float())
                # same key set, and the float keys come in (i < j, k) order
                assert list(approx.constants) == sorted(exact.constants)
                scale = max(abs(float(c)) for c in exact.constants.values())
                for t, c in exact.constants.items():
                    assert abs(approx.constants[t] - float(c)) <= 1e-12 * scale

    def test_cut_tensor_is_acts_cut(self):
        """cut_tensor on a stack gives, slice by slice, the bytes of the
        tensor of the bracket that act's cut, written out entry by entry,
        keeps: constants i < j above 1e-14 max(1, max |entry|) that are not
        NaN.  act keeps those constants, in key order."""
        rng = np.random.default_rng(17)
        b = tricky5()
        C = b.tensor()
        H = np.exp(rng.uniform(-9.0, 9.0, (12, 5, 1))) * rng.standard_normal((12, 5, 5))
        Cp = act_tensor(C, H)
        Cp[3, 0, 1, 2] = np.nan                  # dropped, the cut reads max(1, NaN) as 1
        Cp[4, 0, 1, 2], Cp[4, 1, 0, 2] = np.inf, np.nan   # kept, as act's cut keeps it
        Cp[5, 0, 2, 4] = np.inf                  # an infinite max cuts every constant
        got = cut_tensor(Cp)
        iu, ju = np.triu_indices(5, 1)
        for r in range(len(H)):
            cut = 1e-14 * max(1.0, float(np.abs(Cp[r]).max()))
            upper = Cp[r][iu, ju]
            kept = {(int(iu[i]), int(ju[i]), int(k)): float(upper[i, k])
                    for i, k in zip(*np.nonzero(np.abs(upper) > cut))}
            # Bracket.tensor written out, since a Bracket refuses row 4's inf
            want = np.zeros((5, 5, 5))
            for (i, j, k), c in kept.items():
                want[i, j, k], want[j, i, k] = c, -c
            assert got[r].tobytes() == want.tobytes()
            assert cut_tensor(Cp[r]).tobytes() == got[r].tobytes()
            if r == 4:
                with pytest.raises(PreconditionError, match="non-finite"):
                    Bracket(5, kept, FLOAT)
            else:
                assert Bracket(5, kept, FLOAT).tensor().tobytes() == want.tobytes()
            if r not in (3, 4, 5):
                assert list(act(BasisChange(H[r]), b).constants.items()) == list(kept.items())
        assert np.isinf(got[4]).any() and not got[5].any()

    def test_action_preserves_lie(self):
        rng = np.random.default_rng(3)
        g = np.eye(5) + 0.3 * rng.normal(size=(5, 5))
        assert is_lie(act(BasisChange(g), tricky5().to_float()))

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_basis_change_is_refused(self, bad):
        """A non-finite entry would turn the constants it reaches into NaN,
        which the cut drops: diag(1, 1, inf, 1, 1) used to return
        [e1,e2]->e4 and [e1,e4]->e5, and a NaN entry the zero bracket."""
        h = np.eye(5)
        h[2, 2] = bad
        for b in (tricky5(), tricky5().to_float()):
            with pytest.raises(PreconditionError, match="non-finite"):
                act(BasisChange(h), b)
        h = np.eye(5)
        h[0, 3] = bad
        with pytest.raises(PreconditionError, match="non-finite"):
            act(h, tricky5())


def test_direct_sum_block_structure():
    s = direct_sum(h3(), Bracket(1, {}))
    assert s.dim == 4
    assert lower_central_series(s) == [4, 1, 0]
    assert center(s).shape[1] == 2


# ---------------------------------------------------------------------------
# References: the earlier routines, each expanding the antisymmetry by hand
# and looping over every index triple, kept to check the pair-table readers.

def reference_jacobiator(b, i, j, k):
    n = b.dim
    if b.is_rational:
        def mu(a, bb):
            if a == bb:
                return {}
            p, q = min(a, bb), max(a, bb)
            sign = 1 if a < bb else -1
            return {r: sign * c for (pi, qi, r), c in b.constants.items()
                    if pi == p and qi == q}

        total = [F(0)] * n
        for (a, bb, cc) in ((i, j, k), (j, k, i), (k, i, j)):
            for r, c in mu(a, bb).items():
                for s, c2 in mu(r, cc).items():
                    total[s] += c * c2
        return total
    C = b.tensor()
    ei = np.eye(n)
    total = np.zeros(n)
    for (a, bb, cc) in ((i, j, k), (j, k, i), (k, i, j)):
        inner = np.einsum("i,j,ijk->k", ei[a], ei[bb], C)
        total += np.einsum("i,j,ijk->k", inner, ei[cc], C)
    return total


def reference_validate_jacobi(b):
    worst = F(0) if b.is_rational else 0.0
    for i, j, k in itertools.combinations(range(b.dim), 3):
        res = reference_jacobiator(b, i, j, k)
        if b.is_rational:
            m = max((abs(x) for x in res), default=F(0))
        else:
            m = float(np.linalg.norm(res))
        worst = max(worst, m)
    return worst


def reference_lower_central_series(b):
    """The rational loop; raises as the library does on non-Lie input."""
    if reference_validate_jacobi(b) != 0:
        raise PreconditionError("input does not satisfy the Jacobi identity")
    n = b.dim
    current = [[F(int(i == j)) for j in range(n)] for i in range(n)]
    dims = [n]
    while True:
        products = []
        for vec in current:
            for i in range(n):
                out = [F(0)] * n
                for (p, q, r), c in b.constants.items():
                    if p == i:
                        out[r] += c * vec[q]
                    elif q == i:
                        out[r] -= c * vec[p]
                if any(x != 0 for x in out):
                    products.append(out)
        if products:
            red, pivots = _rational.rref(products)
            nxt = red[: len(pivots)]
        else:
            nxt = []
        dims.append(len(nxt))
        if not nxt or len(nxt) == dims[-2]:
            return dims
        current = nxt


def reference_center(b):
    """The rational loop, then the shared float orthonormalization."""
    n = b.dim
    rows = []
    for j in range(n):
        for k in range(n):
            row = [F(0)] * n
            nontrivial = False
            for (p, q, r), c in b.constants.items():
                if r != k:
                    continue
                if q == j:
                    row[p] += c
                    nontrivial = True
                if p == j:
                    row[q] -= c
                    nontrivial = True
            if nontrivial:
                rows.append(row)
    if not rows:
        return np.eye(n)
    basis = _rational.nullspace(rows, ncols=n)
    if not basis:
        return np.zeros((n, 0))
    M = np.array([[float(x) for x in vec] for vec in basis]).T
    q, _ = np.linalg.qr(M)
    return q[:, : M.shape[1]]


def reference_leibniz_rows(b):
    n = b.dim
    rows = []
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(n):
                row = [F(0)] * (n * n)
                for (p, q, l), c in b.constants.items():
                    if p == i and q == j:
                        row[k * n + l] += c
                for (p, q, r), c in b.constants.items():
                    if r != k:
                        continue
                    if q == j:
                        row[p * n + i] -= c
                    if p == j:
                        row[q * n + i] += c
                    if q == i:
                        row[p * n + j] += c
                    if p == i:
                        row[q * n + j] -= c
                if any(v != 0 for v in row):
                    rows.append(row)
    return rows


def reference_derivation_space(b):
    n = b.dim
    rows = reference_leibniz_rows(b)
    if not rows:
        basis = [[F(int(a == i)) for a in range(n * n)] for i in range(n * n)]
    else:
        basis = _rational.nullspace(rows, ncols=n * n)
    return [[[vec[r * n + c] for c in range(n)] for r in range(n)] for vec in basis]


def _outcome(f, b):
    try:
        return f(b)
    except PreconditionError as e:
        return str(e)


ANY_BRACKET = st.one_of(brackets(), brackets(nilpotent=True))


class TestAgainstReferences:
    """The pair-table routines give the references' exact outputs
    byte for byte, and their float Jacobi residuals to 1e-12 relative,
    on random brackets: Lie and not Lie, nilpotent support or not."""

    @settings(max_examples=150)
    @given(ANY_BRACKET)
    def test_jacobi(self, b):
        assert repr(validate_jacobi(b)) == repr(reference_validate_jacobi(b))
        for t in itertools.product(range(b.dim), repeat=3):
            assert jacobiator(b, *t) == reference_jacobiator(b, *t)
        f = b.to_float()
        scale = max(1.0, max((abs(float(c)) for c in b.constants.values()), default=0.0) ** 2)
        got, want = validate_jacobi(f), reference_validate_jacobi(f)
        assert abs(got - want) <= 1e-12 * scale
        assert is_lie(f) == is_lie(b) == (reference_validate_jacobi(b) == 0)
        for t in itertools.combinations(range(b.dim), 3):
            assert np.allclose(jacobiator(f, *t), reference_jacobiator(f, *t),
                               rtol=0, atol=1e-12 * scale)

    @settings(max_examples=150)
    @given(ANY_BRACKET)
    def test_lower_central_series(self, b):
        want = _outcome(reference_lower_central_series, b)
        assert _outcome(lower_central_series, b) == want
        if isinstance(want, list):
            # the float cut is relative to the bracket's scale, so the
            # float series reads the exact dimensions
            assert lower_central_series(b.to_float()) == want

    @settings(max_examples=150)
    @given(ANY_BRACKET)
    def test_center(self, b):
        got, want = center(b), reference_center(b)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()

    @settings(max_examples=100)
    @given(ANY_BRACKET)
    def test_derivation_space(self, b):
        assert repr(derivation_space(b, "rational")) == repr(reference_derivation_space(b))


class TestScale:
    """Dimensions past any workload: heisenberg:41 and filiform:24."""

    def test_lie_and_step(self):
        for name, param, step in [("heisenberg", 41, 2), ("filiform", 24, 23)]:
            b = corpus(name, param).bracket
            assert validate_jacobi(b) == 0
            assert nilpotency_step(b) == step

    def test_broken_jacobi_matches_reference(self):
        # [e1, e41] = e2 breaks the identity on (e1, e3, e4): [[e3, e4], e1] = -e2
        b = corpus("heisenberg", 41).bracket
        broken = Bracket(41, {**b.constants, (0, 40, 1): F(1)})
        assert repr(validate_jacobi(broken)) == repr(reference_validate_jacobi(broken)) \
            == repr(F(1))
        for t in [(0, 2, 3), (3, 2, 0), (0, 1, 2), (0, 40, 1), (2, 3, 5)]:
            assert jacobiator(broken, *t) == reference_jacobiator(broken, *t)
        assert jacobiator(broken, 0, 2, 3)[1] == -1
        with pytest.raises(PreconditionError, match="Jacobi"):
            lower_central_series(broken)
