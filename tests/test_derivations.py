import itertools
import time
from fractions import Fraction as F

import numpy as np
import pytest

from rnlie import _rational
from rnlie.brackets import Bracket, act, BasisChange
from rnlie.corpus import corpus
from rnlie.derivations import (_conjugate_pivots, _lifting_permutations,
                               derivation_space, diagonal_derivation,
                               diagonal_torus, is_derivation, leibniz_residual,
                               weyl_coordinate_actions)
from rnlie.errors import PreconditionError


def h3():
    return corpus("heisenberg", 3).bracket


def tricky5():
    return corpus("tricky5").bracket


class TestDerivationSpace:
    def test_h3_dimension_six(self):
        assert len(derivation_space(h3())) == 6

    def test_abelian_dimension(self):
        for n in (1, 2, 3):
            assert len(derivation_space(Bracket(n, {}))) == n * n

    def test_exact_and_float_agree(self):
        for name, param in [("heisenberg", 3), ("tricky5", None),
                            ("filiform", 4), ("heisenberg", 5)]:
            b = corpus(name, param).bracket
            assert len(derivation_space(b)) == len(derivation_space(b, scalars="rational"))

    def test_every_output_is_a_derivation(self):
        for D in derivation_space(tricky5()):
            assert leibniz_residual(D, tricky5()) < 1e-9


class TestTorus:
    def test_h3_basis_and_weights(self):
        t = diagonal_torus(h3())
        assert t.dim == 2
        assert t.basis == ((F(1), F(0), F(1)), (F(0), F(1), F(1)))
        assert [idx for _, idx in t.weights] == [(0,), (1,), (2,)]
        assert t.multiplicity_free

    def test_tricky5_shared_weight(self):
        t = diagonal_torus(tricky5())
        assert t.dim == 2
        # diag(a, b, a+b, a+b, 2a+b): e3 and e4 share a weight
        assert t.diagonal_entries((F(1), F(0))) == [1, 0, 1, 1, 2]
        assert t.diagonal_entries((F(0), F(1))) == [0, 1, 1, 1, 1]
        classes = [idx for _, idx in t.weights]
        assert (2, 3) in classes
        assert not t.multiplicity_free

    def test_abelian_full_diagonal(self):
        t = diagonal_torus(Bracket(4, {}))
        assert t.dim == 4

    def test_membership(self):
        t = diagonal_torus(h3())
        assert t.coords_of([F(1), F(2), F(3)]) == (F(1), F(2))
        assert t.coords_of([F(1), F(2), F(4)]) is None
        assert t.coords_of([1.0, 2.0, 3.0]) == pytest.approx((1.0, 2.0))

    def test_basis_annihilates_weight_vectors_exactly(self):
        for name, param in [("heisenberg", 5), ("tricky5", None), ("filiform", 5)]:
            b = corpus(name, param).bracket
            t = diagonal_torus(b)
            for row in t.basis:
                for (i, j, k) in b.constants:
                    assert row[k] - row[i] - row[j] == 0


class TestTorusMemo:
    """diagonal_torus is computed once per Bracket instance."""

    @staticmethod
    def fresh_h5():
        # an equal copy of the corpus entry, whose torus other tests may
        # already have computed
        return Bracket(5, dict(corpus("heisenberg", 5).bracket.constants))

    def test_repeat_call_returns_the_same_object(self):
        b = self.fresh_h5()
        assert diagonal_torus(b) is diagonal_torus(b)

    def test_equal_bracket_gets_an_equal_torus(self):
        b, again = self.fresh_h5(), self.fresh_h5()
        assert diagonal_torus(again) == diagonal_torus(b)
        assert diagonal_torus(again) is not diagonal_torus(b)

    def test_float_bracket_is_refused_on_every_call(self):
        fb = self.fresh_h5().to_float()
        before = dict(vars(fb))
        for _ in range(2):
            with pytest.raises(PreconditionError, match="rational"):
                diagonal_torus(fb)
        assert vars(fb) == before

    def test_equality_and_repr_ignore_the_stored_torus(self):
        b, plain = self.fresh_h5(), self.fresh_h5()
        text = repr(b)
        diagonal_torus(b)
        assert b == plain and plain == b
        assert repr(b) == text

    def test_memberships_build_the_torus_once(self, monkeypatch):
        from rnlie import derivations
        from rnlie.cone import cone_membership
        built = []
        build = derivations._diagonal_torus
        monkeypatch.setattr(derivations, "_diagonal_torus",
                            lambda b: built.append(b) or build(b))
        b = self.fresh_h5()
        points = [[F(t, 8), F(16 - t, 8), 1, 1, 2] for t in range(50)]
        verdicts = [cone_membership(D, b) for D in points]
        assert len(built) == 1
        assert verdicts == [cone_membership(D, self.fresh_h5()) for D in points]
        assert set(verdicts) == {"In", "Out"}


class TestDiagonalGate:
    def test_leibniz_gate(self):
        assert is_derivation(np.diag([1.0, 1.0, 2.0]), h3())
        assert is_derivation(np.diag([-1.0, 1.0, 0.0]), h3())
        N = np.zeros((3, 3))
        N[2, 0] = 1.0  # e1 -> e3 extends to a derivation of h3
        assert is_derivation(N, h3())
        assert not is_derivation(np.eye(3), h3())
        assert is_derivation([1, 1, 2], h3()) and not is_derivation([1, 1, 3], h3())
        assert is_derivation([F(1, 2), F(1, 3), F(5, 6)], h3())

    def test_exact_entries_stay_exact(self):
        got = diagonal_derivation([1, F(1, 3), F(4, 3)], h3())
        assert got == [1, F(1, 3), F(4, 3)]
        assert all(type(x) is F for x in got)
        assert diagonal_derivation(np.array([1, 1, 2]), h3()) == [1, 1, 2]
        assert diagonal_derivation(np.diag([1, 1, 2]), h3()) == [1, 1, 2]
        floats = diagonal_derivation(np.diag([1.0, 1.0, 2.0]), h3())
        assert floats == [1.0, 1.0, 2.0] and all(type(x) is float for x in floats)

    def test_refusals(self):
        for D in ([1, 1, 3], [F(1), F(1), F(2) + F(1, 10**30)], [1.0, 1.0, 3.0]):
            with pytest.raises(PreconditionError, match="not a derivation"):
                diagonal_derivation(D, h3())
        off = np.diag([1.0, 1.0, 2.0])
        off[0, 1] = 1e-3
        for D in (off, [1, 1], np.eye(2)):
            with pytest.raises(PreconditionError):
                diagonal_derivation(D, h3())

    def test_non_finite_refused(self):
        for D in ([np.inf, 1.0, 1.0], [np.nan, 1.0, 1.0], [1e308, 1.0, 1.0]):
            with pytest.raises(PreconditionError):
                diagonal_derivation(D, h3())
        # the Leibniz residual overflows here; it must not pass as inf <= inf
        assert not is_derivation([1e308, 1.0, 1.0], h3())

    def test_float_gate_ignores_constant_sizes(self):
        # [e1, e2] = 10^6 e3, [e1, e3] = 10^-3 e4: the torus asks d4 = d1 + d3
        # however far apart the two constants are in size
        b = Bracket(4, {(0, 1, 2): F(10**6), (0, 2, 3): F(1, 1000)})
        t = diagonal_torus(b)
        for d in ([1.0, 1.0, 2.0, 3.5], [1.0, 1.0, 2.0, 7.0]):
            assert t.coords_of(d) is None
            with pytest.raises(PreconditionError, match="not a derivation"):
                diagonal_derivation(d, b)
        assert diagonal_derivation([1.0, 1.0, 2.0, 3.0], b) == [1.0, 1.0, 2.0, 3.0]

    def test_float_gate_is_torus_membership(self):
        rng = np.random.default_rng(7)
        disparate = Bracket(4, {(0, 1, 2): F(10**6), (0, 2, 3): F(1, 1000)})
        for b in (disparate, tricky5(), corpus("filiform", 5).bracket):
            t = diagonal_torus(b)
            for _ in range(40):
                d = t.diagonal_entries([float(c) for c in rng.normal(size=t.dim)])
                if rng.random() < 0.5:
                    d[int(rng.integers(b.dim))] += float(rng.choice([1e-3, -0.5]))
                inside = t.coords_of(d) is not None
                try:
                    diagonal_derivation(d, b)
                    accepted = True
                except PreconditionError:
                    accepted = False
                assert accepted == inside

    def test_exact_gate_is_torus_membership(self):
        rng = np.random.default_rng(5)
        for name, param in [("heisenberg", 5), ("tricky5", None), ("filiform", 5)]:
            b = corpus(name, param).bracket
            t = diagonal_torus(b)
            for _ in range(40):
                coords = [F(int(c), 3) for c in rng.integers(-6, 7, size=t.dim)]
                d = t.diagonal_entries(coords)
                if rng.random() < 0.5:
                    d[int(rng.integers(b.dim))] += F(1, 7)
                inside = t.coords_of(d) is not None
                try:
                    diagonal_derivation(d, b)
                    accepted = True
                except PreconditionError:
                    accepted = False
                assert accepted == inside


class TestWeylGroup:
    def test_h3_group_order_and_swap(self):
        assert _lifting_permutations(h3()) == [(0, 1, 2), (1, 0, 2)]
        actions = weyl_coordinate_actions(h3())
        assert len(actions) == 2
        swap = tuple(tuple(row) for row in actions[1])
        assert swap == ((F(0), F(1)), (F(1), F(0)))

    def test_h3_group_closed(self):
        """The exact coordinate actions, here of h3 and heisenberg:5, are
        closed under products and inverses."""
        for b in (h3(), corpus("heisenberg", 5).bracket):
            actions = weyl_coordinate_actions(b)
            keys = {tuple(map(tuple, a)) for a in actions}
            r = len(actions[0])
            ident = tuple(tuple(F(int(i == j)) for j in range(r)) for i in range(r))
            for g in actions:
                products = []
                for k in actions:
                    gk = tuple(tuple(sum(g[i][l] * k[l][j] for l in range(r))
                                     for j in range(r)) for i in range(r))
                    assert gk in keys
                    products.append(gk)
                assert ident in products

    def test_elements_are_automorphisms(self):
        """Each permutation that lifts has signs whose signed permutation
        matrix acts on h3 as an automorphism."""
        b = h3()

        def fixes_b(perm, signs):
            g = np.zeros((b.dim, b.dim))
            g[list(perm), range(b.dim)] = signs
            moved = act(BasisChange(g), b.to_float())
            return np.abs(moved.tensor() - b.tensor()).max() < 1e-12

        for perm in _lifting_permutations(b):
            assert any(fixes_b(perm, signs)
                       for signs in itertools.product((-1, 1), repeat=b.dim))

    def test_abelian3_full_signed_permutations(self):
        assert len(_lifting_permutations(Bracket(3, {}))) == 6
        assert len(weyl_coordinate_actions(Bracket(3, {}))) == 6

    def test_heisenberg5_contains_pair_swap(self):
        b = corpus("heisenberg", 5).bracket
        t = diagonal_torus(b)
        actions = weyl_coordinate_actions(b, t)
        # the coordinate action group contains a non-identity element
        # swapping the two generator pairs
        assert len(actions) == 8
        rows = [_rational._integer_row(row)[0] for row in t.basis]
        swaps = [_conjugate_pivots(perm, t, rows) for perm in _lifting_permutations(b)
                 if perm[0] == 2 and perm[2] == 0]
        assert swaps
        for pre in swaps:
            assert [[row[i] for row in t.basis] for i in pre] in actions[1:]

    def test_torus_action_is_exact_permutation(self):
        for A in weyl_coordinate_actions(h3()):
            flat = [x for row in A for x in row]
            assert all(x in (F(0), F(1)) for x in flat)

    def test_dimension_guard(self):
        with pytest.raises(PreconditionError):
            weyl_coordinate_actions(Bracket(9, {}))


# every corpus entry of dimension at most 5, then sl(2, R), whose sign
# equations are inconsistent for some permutations that keep every |c|,
# and a pair bracketing to two targets of different sizes
SMALL_BRACKETS = [corpus(name, param).bracket for name, param in [
    ("tricky5", None), ("heisenberg", 3), ("heisenberg", 5), ("filiform", 4),
    ("filiform", 5), ("abelian", 3), ("abelian", 4), ("euclid3", None),
    ("milnor_heis", None), ("milnor_hyp", 3)]] + [
    Bracket(3, {(0, 1, 2): 1, (0, 2, 1): 1, (1, 2, 0): -1}),
    Bracket(4, {(0, 1, 2): 1, (0, 1, 3): 2})]


def brute_force_automorphisms(b):
    """Every signed permutation e_i -> s_i e_pi(i) that fixes the bracket,
    among all 2^n n! of them, as (pi, s): identity first, then in order."""
    n = b.dim
    found = []
    for perm in itertools.permutations(range(n)):
        for signs in itertools.product((-1, 1), repeat=n):
            moved = {}
            for (i, j, k), c in b.constants.items():
                value = c * signs[i] * signs[j] * signs[k]
                if perm[i] < perm[j]:
                    moved[(perm[i], perm[j], perm[k])] = value
                else:
                    moved[(perm[j], perm[i], perm[k])] = -value
            if moved == dict(b.constants):
                found.append((perm, signs))
    ident = (tuple(range(n)), (1,) * n)
    return sorted(found, key=lambda ps: (ps != ident, ps))


def reference_action(perm, t):
    """T -> g T g^-1 on torus coordinates for g e_i = +-e_pi(i), each
    conjugated basis row solved for its coordinates; None off the torus."""
    n, r = len(perm), t.dim
    columns = [[t.basis[l][i] for l in range(r)] for i in range(n)]
    coords = []
    for row in t.basis:
        conj = [F(0)] * n
        for i in range(n):
            conj[perm[i]] = row[i]
        x = _rational.solve(columns, conj)
        if x is None:
            return None
        coords.append(x)
    return [[coords[c][l] for c in range(r)] for l in range(r)]


class TestWeylReference:
    @pytest.mark.parametrize("b", SMALL_BRACKETS)
    def test_matches_brute_force(self, b):
        autos = brute_force_automorphisms(b)
        assert _lifting_permutations(b) == sorted({perm for perm, _ in autos})
        t = diagonal_torus(b)
        actions = {tuple(map(tuple, reference_action(perm, t))) for perm, _ in autos}
        ident = tuple(tuple(F(int(i == j)) for j in range(t.dim)) for i in range(t.dim))
        want = [list(map(list, a)) for a in sorted(actions, key=lambda a: (a != ident, a))]
        assert weyl_coordinate_actions(b) == want

    @pytest.mark.parametrize("b", SMALL_BRACKETS)
    def test_torus_action_of_every_permutation(self, b):
        t = diagonal_torus(b)
        rows = [_rational._integer_row(row)[0] for row in t.basis]
        for perm in itertools.permutations(range(b.dim)):
            pre = _conjugate_pivots(perm, t, rows)
            action = None if pre is None else [[row[i] for row in t.basis] for i in pre]
            assert action == reference_action(perm, t)


class TestWeylSearchBudget:
    def test_heisenberg9_actions(self):
        assert len(weyl_coordinate_actions(corpus("heisenberg", 9).bracket)) == 384

    def test_heisenberg13_refused_quickly(self):
        b = corpus("heisenberg", 13).bracket
        t = diagonal_torus(b)
        start = time.perf_counter()
        with pytest.raises(PreconditionError, match="nodes"):
            weyl_coordinate_actions(b, t)
        assert time.perf_counter() - start < 1.0
