"""Cone membership, sections, Weyl invariance and audits."""

import itertools
from fractions import Fraction

import numpy as np
import pytest

from rnlie import _rational
from rnlie.cone import (EXACT, IN, OUT, SAMPLED_INNER, ConeSection,
                        _exact_section, cone_membership, cone_section,
                        containment_audit, weyl_invariance_check)
from rnlie.certify import SrnCertificate, certify_srn_nice
from rnlie.corpus import corpus
from rnlie.derivations import diagonal_torus
from rnlie.errors import PreconditionError

h3 = corpus("heisenberg", 3).bracket
h5 = corpus("heisenberg", 5).bracket
t5 = corpus("tricky5").bracket
ab3 = corpus("abelian", 3).bracket


def diag(*entries):
    return np.diag(np.array(entries, dtype=float))


def _heisenberg_section_closed_form(k):
    """Diagonals of the vertices of sum f(a_i) <= T on heisenberg(2k+1),
    T = 1/(k+1) and f(x) = max(0, -x, x - T), built from the pieces of f
    as acceptance 07 builds the octagon.

    The region is cut out by the rows sum p_i(a_i) <= T over every tuple
    of pieces p_i of f; a point of it where k independent rows are tight
    is a vertex.  The tight rows at a point combine the pieces active at
    each entry, so k independent ones need k - 1 entries at a break point
    0 or T and, to reach the level T, the last at -T or 2T: the grid
    {-T, 0, T, 2T}^k holds every vertex.  Worked in units of T.
    """
    pieces = ((-1, 0), (0, 0), (1, -1))  # x -> slope * x + offset
    rows = [(tuple(p[0] for p in ps), 1 - sum(p[1] for p in ps))
            for ps in itertools.product(pieces, repeat=k)]
    T = Fraction(1, k + 1)
    out = set()
    for a in itertools.product((-1, 0, 1, 2), repeat=k):
        values = [(slope, sum(s * x for s, x in zip(slope, a)), r) for slope, r in rows]
        if any(v > r for _, v, r in values):
            continue
        tight = [slope for slope, v, r in values if v == r]
        if tight and len(_rational.rref(tight)[1]) == k:
            out.add(tuple(e for x in a for e in (x * T, T - x * T)) + (T,))
    return out


class TestMembership:
    def test_h3_verdicts(self):
        assert cone_membership(diag(1, 1, 2), h3) == IN
        assert cone_membership(diag(-1, 1, 0), h3) == OUT  # trace 0
        assert cone_membership(diag(-1, 1.5, 0.5), h3) == OUT  # exact LP
        assert cone_membership(diag(-0.4, 0.9, 0.5), h3) == IN

    def test_torus_gate(self):
        with pytest.raises(PreconditionError):
            cone_membership(diag(1, 1, 1), h3)
        # within the float gate's tolerance, outside the exact one
        with pytest.raises(PreconditionError):
            cone_membership([Fraction(1), Fraction(1), 2 + Fraction(1, 10**11)], h3)

    def test_sampled_route(self):
        assert cone_membership(diag(1, 1, 2, 2, 3), t5, seed=7) == IN

    def test_matches_h3_closed_form_on_grid(self):
        for i in range(-4, 5, 2):
            for j in range(-4, 5, 2):
                a, b = i / 2.0, j / 2.0
                want = IN if (2 * a + b > 0 and a + 2 * b > 0) else OUT
                assert cone_membership(diag(a, b, a + b), h3) == want

    def test_scaling_and_absorption(self):
        D = diag(-0.4, 0.9, 0.5)
        assert cone_membership(3 * D, h3) == IN
        assert cone_membership(-D, h3) == OUT
        assert cone_membership(D + diag(1, 1, 2), h3) == IN


class TestExactSections:
    def test_h3_segment(self):
        s = cone_section(h3, 1)
        assert s.exactness == EXACT
        assert s.vertices == ((Fraction(-1, 2), Fraction(1)),
                              (Fraction(1), Fraction(-1, 2)))

    def test_h5_octagon(self):
        # the section is the Minkowski sum of a square and a cross-polytope:
        # eight vertices, exactly computed
        s = cone_section(h5, 1)
        assert s.exactness == EXACT
        assert len(s.vertices) == 8
        third = Fraction(1, 3)
        expected = set()
        for x, y in [(-1, 0), (-1, 1), (0, -1), (0, 2), (1, -1), (1, 2),
                     (2, 0), (2, 1)]:
            # entries (x, T-x, y, T-y, T) at T = 1/3, in torus coordinates
            expected.add((x * third, (1 - x) * third, y * third))
        assert set(s.vertices) == expected

    def test_abelian_simplex(self):
        s = cone_section(ab3, 1)
        assert s.exactness == EXACT
        assert set(s.vertices) == {(Fraction(1), Fraction(0), Fraction(0)),
                                   (Fraction(0), Fraction(1), Fraction(0)),
                                   (Fraction(0), Fraction(0), Fraction(1))}

    def test_filiform_segment(self):
        f5 = corpus("filiform", 5).bracket
        s = cone_section(f5, 1)
        assert s.exactness == EXACT
        assert set(s.vertices) == {(Fraction(-1, 5), Fraction(3, 5)),
                                   (Fraction(1), Fraction(-3, 2))}

    def test_dilation(self):
        s1 = cone_section(h3, 1)
        s2 = cone_section(h3, 2)
        assert set(s2.vertices) == {tuple(2 * x for x in v)
                                    for v in s1.vertices}

    def test_trace_level_gate(self):
        with pytest.raises(PreconditionError):
            cone_section(h3, 0)
        with pytest.raises(PreconditionError):
            cone_section(h3, -1)

    def test_torus_dimension_guard(self):
        h9 = corpus("heisenberg", 9).bracket
        with pytest.raises(PreconditionError):
            cone_section(h9, 1)

    @pytest.mark.parametrize("k, facets, vertices", [(4, 81, 64), (5, 243, 160)])
    def test_heisenberg_past_the_torus_bound(self, k, facets, vertices):
        # cone_section refuses these tori (test_torus_dimension_guard);
        # the exact routine itself gives the closed form sum f(a_i) <= T
        b = corpus("heisenberg", 2 * k + 1).bracket
        torus = diagonal_torus(b)
        s = _exact_section(b, torus, 1)
        assert len(s.halfspaces) == facets
        assert len(s.vertices) == vertices
        closed = _heisenberg_section_closed_form(k)
        assert len(closed) == vertices
        assert set(s.vertices) == {torus.coords_of(e) for e in closed}

    def test_vertices_certify_only_as_boundary(self):
        # section vertices sit on the boundary: their exact margin is 0
        s = cone_section(h3, 1)
        for v in s.vertices:
            D = np.diag([float(x) for x in s.torus.diagonal_entries(v)])
            res = certify_srn_nice(D, h3)
            assert not isinstance(res, SrnCertificate)
            assert res.margin == 0
        # a heisenberg(5) boundary point in thirds has margin exactly 0
        # only when its entries stay exact, and is then definitively Out
        F = Fraction
        assert cone_membership([F(-1, 3), F(4, 3), F(5, 3), F(-2, 3), F(1)], h5) == OUT

    def test_midpoint_concavity_of_margin(self):
        s = cone_section(h5, 1)
        verts = s.vertices
        interior = [tuple((x + y) / 2 for x, y in zip(verts[i], verts[j]))
                    for i, j in [(0, 5), (2, 7)]]

        def margin_at(c):
            D = np.diag([float(x) for x in s.torus.diagonal_entries(list(c))])
            return certify_srn_nice(D, h5).margin

        m1, m2 = (margin_at(c) for c in interior)
        mid = tuple((x + y) / 2 for x, y in zip(interior[0], interior[1]))
        assert margin_at(mid) >= min(m1, m2)


class TestSampledSection:
    def test_tricky5_segment(self):
        s = cone_section(t5, 1, resolution=32, seed=9)
        assert s.exactness == SAMPLED_INNER
        assert len(s.vertices) == 2
        ends = sorted(tuple(round(float(x), 3) for x in v) for v in s.vertices)
        assert abs(ends[0][0] + 1 / 3) < 0.05 and abs(ends[1][0] - 1.0) < 0.05

    def test_deterministic(self):
        a = cone_section(t5, 1, resolution=16, seed=4)
        b = cone_section(t5, 1, resolution=16, seed=4)
        assert a.vertices == b.vertices


class TestWeylInvariance:
    def test_exact_sections_invariant(self):
        for b in (h3, h5, ab3):
            rep = weyl_invariance_check(cone_section(b, 1))
            assert rep.ok and rep.worst_distance == 0.0

    def test_violation_detected(self):
        s = cone_section(h5, 1)
        broken = ConeSection(s.torus, s.trace_level, s.vertices[:-1],
                             s.exactness, s.halfspaces)
        rep = weyl_invariance_check(broken)
        assert not rep.ok and rep.failures

    def test_action_count(self):
        rep = weyl_invariance_check(cone_section(h5, 1))
        assert rep.actions_checked == 8


class TestAudit:
    def test_h3_full_success(self):
        rep = containment_audit(h3, cone_section(h3, 1), probes=20, seed=5)
        assert rep.witnesses == rep.probes == 20
        assert rep.worst_lambda < -1e-6
        assert rep.failures == ()

    def test_probe_count_gate(self):
        with pytest.raises(PreconditionError):
            containment_audit(h3, cone_section(h3, 1), probes=0)
