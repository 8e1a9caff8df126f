"""Cone membership, sections, Weyl invariance and audits."""

import hashlib
import itertools
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from strategies import nice_brackets

from rnlie import _rational, cone
from rnlie._hull import hrep_vertices
from rnlie.brackets import direct_sum
from rnlie.cone import (EXACT, IN, OUT, SAMPLED_INNER, UNKNOWN, ConeSection,
                        _exact_section, cone_membership, cone_section,
                        containment_audit, weyl_invariance_check)
from rnlie.certify import SrnCertificate, certify_srn_nice, certify_srn_sampled
from rnlie.corpus import corpus
from rnlie.derivations import diagonal_torus
from rnlie.errors import NumericalError, PreconditionError
from rnlie.moment import TORUS_CENTRALIZER, orbit_sample, weight_vector
from rnlie.rng import generator

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

    def test_trace_gate_is_exact_on_exact_input(self):
        # trace 4e-11 as Fractions: positive, so the exact margin 3/(2e11)
        # decides, and it is below the certificate threshold but not <= 0
        tiny = [Fraction(x, 10**11) for x in (1, 1, 2)]
        assert cone_membership(tiny, h3) == UNKNOWN
        assert cone_membership([x * 1000 for x in tiny], h3) == UNKNOWN
        assert cone_membership([Fraction(-1), Fraction(1), Fraction(0)], h3) == OUT
        # float entries keep the 1e-10 gate
        assert cone_membership([float(x) for x in tiny], h3) == OUT

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
        with pytest.raises(PreconditionError):
            cone_section(h3, Fraction(-1, 10**400))

    @pytest.mark.parametrize("t", [Fraction(1, 10**400), 10**400], ids=["1e-400", "1e400"])
    def test_levels_outside_float_range(self, t):
        # the sign is decided exactly, and the vertices are checked on
        # the level in their own scalars: 1e-400 rounds to 0.0 as a
        # float and 1e400 overflows one
        s = cone_section(h3, t)
        assert s.exactness == EXACT and s.trace_level == t
        assert s.vertices == tuple(tuple(t * x for x in v)
                                   for v in cone_section(h3, 1).vertices)

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


def _fraction_fm_eliminate(rows, keep, drop):
    """Fourier-Motzkin elimination of the `drop` columns from rows
    (a, rhs) read as a . x <= rhs, in Fraction arithmetic; returns the
    distinct rows over the `keep` columns scaled to |lead| = 1, in the
    order found.  The reference for cone._fm_eliminate."""
    work = [([Fraction(x) for x in a], Fraction(r)) for a, r in rows]
    for col in drop:
        pos, neg, zero = [], [], []
        for a, r in work:
            if a[col] > 0:
                pos.append((a, r))
            elif a[col] < 0:
                neg.append((a, r))
            else:
                zero.append((a, r))
        out = list(zero)
        for ap, rp in pos:
            for an, rn in neg:
                s, t = ap[col], -an[col]
                out.append(([t * x + s * y for x, y in zip(ap, an)], t * rp + s * rn))
        work = out
    cleaned, seen = [], set()
    for a, r in work:
        proj = [a[c] for c in keep]
        lead = next((x for x in proj if x != 0), None)
        if lead is None:
            assert r >= 0
            continue
        scale = abs(lead)
        key = (tuple(x / scale for x in proj), r / scale)
        if key not in seen:
            seen.add(key)
            cleaned.append(key)
    return cleaned


def _fraction_section(b, torus, t):
    """The halfspaces and vertices of the exact section, from Fraction
    rows of the margin system through _fraction_fm_eliminate."""
    d, n = torus.dim, b.dim
    weights = [weight_vector(tr, n) for tr in sorted(b.constants)]
    m = len(weights)
    rows = [([-Fraction(row[r]) for row in torus.basis] + [Fraction(w[r]) for w in weights],
             Fraction(0)) for r in range(n)]
    for i in range(m):
        a = [Fraction(0)] * (d + m)
        a[d + i] = Fraction(-1)
        rows.append((a, Fraction(0)))
    halfspaces = tuple(_fraction_fm_eliminate(rows, range(d), range(d, d + m)))
    verts = hrep_vertices([a for a, _ in halfspaces], [r for _, r in halfspaces],
                          a_eq=[[Fraction(f) for f in torus.trace_functional()]],
                          b_eq=[Fraction(t)])
    return halfspaces, verts


def _assert_matches_fraction_section(b, t):
    torus = diagonal_torus(b)
    halfspaces, verts = _fraction_section(b, torus, t)
    if not verts:
        with pytest.raises(NumericalError):
            _exact_section(b, torus, t)
        return
    s = _exact_section(b, torus, t)
    assert repr((s.halfspaces, s.vertices)) == repr((halfspaces, verts))


_SWEEP = ([("heisenberg", k) for k in (3, 5, 7, 9, 11)]
          + [("filiform", k) for k in (3, 4, 5, 6, 7, 8, 10)]
          + [("abelian", k) for k in (1, 2, 3)]
          + [("milnor_heis",), ("h3+h3",), ("f4+a1",)])


def _sweep_bracket(entry):
    if entry == ("h3+h3",):
        return direct_sum(h3, h3)
    if entry == ("f4+a1",):
        return direct_sum(corpus("filiform", 4).bracket, corpus("abelian", 1).bracket)
    return corpus(*entry).bracket


class TestIntegerElimination:
    """cone._fm_eliminate works on primitive integer rows; its sections
    keep the bytes of the Fraction elimination with a right-hand side."""

    @pytest.mark.parametrize("entry", _SWEEP, ids=[":".join(map(str, e)) for e in _SWEEP])
    @pytest.mark.parametrize("t", [1, Fraction(3, 7)], ids=["1", "3/7"])
    def test_corpus_sweep(self, entry, t):
        _assert_matches_fraction_section(_sweep_bracket(entry), t)

    @settings(max_examples=60)
    @given(nice_brackets())
    def test_drawn_nice_brackets(self, b):
        torus = diagonal_torus(b)
        assume(torus.multiplicity_free and 1 <= torus.dim <= 4)
        _assert_matches_fraction_section(b, 1)

    def test_rows_are_primitive_and_distinct(self):
        # column 2 has rows of either sign: (1, 1, 0) stays, then each
        # positive row meets each negative one.  (12, 12, 0) is (1, 1, 0)
        # again, (-6, 0, 0) and (-3, 0, 0) are one row, and (0, 0, 2)
        # with (0, 0, -1) leaves nothing over the first two columns
        rows = [(2, 0, -4), (0, 3, 6), (1, 1, 0), (-3, 0, 3), (0, 0, -1), (0, 0, 2)]
        assert cone._fm_eliminate(rows, 2) == [(1, 1), (0, 1), (-1, 0), (1, 0)]


# (c_1, .., c_d) torus points, all with tr D > 0, for the sampled-route
# oracle; some lie in the cone and some outside it
_ORACLE_POINTS = {
    2: [(1, 1), (Fraction(-1, 4), 1), (1, Fraction(-1, 3)), (2, Fraction(-1, 2)),
        (Fraction(-1, 2), 3), (Fraction(1, 3), Fraction(2, 5)), (3, -2), (Fraction(-1, 2), 1)],
    3: [(1, 1, 1), (Fraction(-1, 4), 1, Fraction(1, 2)), (1, Fraction(-1, 3), 2),
        (2, -1, 1), (Fraction(-1, 2), 3, Fraction(1, 2)),
        (Fraction(1, 3), Fraction(2, 5), Fraction(1, 7)), (3, -2, 1),
        (Fraction(1, 2), Fraction(1, 2), -1)],
}


class TestSampledAgainstExact:
    """On a nice multiplicity-free basis NiceLP and the exact section are
    exact, so they are an oracle for the sampled route: a SampledLP
    certificate needs a NiceLP one, its margin is never larger, and a
    sampled section lies strictly inside every exact facet row."""

    @pytest.mark.parametrize("name, k", [("heisenberg", 3), ("heisenberg", 5),
                                         ("filiform", 5)])
    def test_sampled_route_within_exact(self, name, k):
        b = corpus(name, k).bracket
        torus = diagonal_torus(b)
        diags = [torus.diagonal_entries(list(c)) for c in _ORACLE_POINTS[torus.dim]]
        assert all(sum(d) > 0 for d in diags)
        nice = [certify_srn_nice(d, b) for d in diags]
        for seed in (1, 2):
            for count in (8, 48):
                sample = orbit_sample(TORUS_CENTRALIZER, b, count=count, seed=seed)
                for d, exact in zip(diags, nice):
                    res = certify_srn_sampled(d, b, sample)
                    assert (not isinstance(res, SrnCertificate)
                            or isinstance(exact, SrnCertificate)), d
                    assert res.margin <= exact.margin, d
        assert any(isinstance(r, SrnCertificate) for r in nice)
        assert any(r.margin <= 0 for r in nice)
        halfspaces = cone_section(b, 1).halfspaces
        for seed in (1, 2):
            for v in cone._sampled_section(b, torus, 1, 12, seed).vertices:
                v = [Fraction(x) for x in v]
                for a, r in halfspaces:
                    assert sum(x * y for x, y in zip(a, v)) < r, (seed, v, a)


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


def _plane_coordinates(points, trace_row):
    """The points in an orthonormal basis of the trace plane's directions,
    a chart independent of the coordinate _extreme_subset drops."""
    return points @ np.linalg.svd(trace_row[None])[2][1:].T


class TestSectionVertices:
    """A sampled section keeps the probe points that are vertices of
    their hull in the trace plane; scipy's qhull, run on plane
    coordinates, is the reference."""

    def test_points_of_a_trace_plane(self):
        """20 seeded points of the plane c2 + 2 c3 = 1 in 3-D, whose first
        coordinate the trace row does not read."""
        from scipy.spatial import ConvexHull
        trace_row = np.array([0.0, 1.0, 2.0])
        xy = np.random.default_rng(20).standard_normal((20, 2))
        pts = np.column_stack([xy, (1 - xy[:, 1]) / 2])
        want = sorted(ConvexHull(_plane_coordinates(pts, trace_row)).vertices)
        assert 3 <= len(want) < 20
        assert cone._extreme_subset(pts, trace_row) == tuple(
            tuple(float(x) for x in pts[i]) for i in want)

    @pytest.mark.parametrize("summand", [("abelian", 1), ("heisenberg", 3)],
                             ids=["torus3", "torus4"])
    @pytest.mark.parametrize("resolution,t", [(12, 1), (64, 3)])
    def test_vertices_are_extreme_in_the_trace_plane(self, monkeypatch, summand,
                                                     resolution, t):
        """Each vertex is extreme among the vertices in the trace plane, and
        the vertices keep every support value of all the probe points
        within 1e-12: only points that are not extreme are dropped."""
        from scipy.spatial import ConvexHull
        b = direct_sum(t5, corpus(*summand).bracket)
        torus = diagonal_torus(b)
        trace_row = np.array([float(f) for f in torus.trace_functional()])
        probes, pick = [], cone._extreme_subset
        monkeypatch.setattr(cone, "_extreme_subset",
                            lambda points, row: probes.append(points) or pick(points, row))
        for seed in range(1, 11):
            V = np.array(cone_section(b, t, resolution=resolution, seed=seed).vertices)
            hull = ConvexHull(_plane_coordinates(V, trace_row))
            assert sorted(hull.vertices) == list(range(len(V)))
            dirs = cone._probe_directions(torus.dim, resolution,
                                          generator(seed, cone._CONE_STREAM))
            gap = (probes[-1] @ dirs.T).max(axis=0) - (V @ dirs.T).max(axis=0)
            assert np.abs(gap).max() <= 1e-12

    def test_tricky5_sections_keep_their_bytes(self):
        """tricky5's sections are segments in torus dimension 2: their two
        ends at trace levels 1 and 3, resolutions 12, 64 and 256, seeds
        1-20."""
        text = "".join(repr(cone_section(t5, t, resolution=r, seed=s).vertices)
                       for t, r in [(1, 12), (3, 64), (1, 256)] for s in range(1, 21))
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "64fabe5b792a29073f756a3f83ccb6e6a73f233e9e63151a1c115ce55dbff1eb")


def _highs_points(a_ub, b_ub, a_eq, b_eq, directions):
    """The probe points from scipy's HiGHS, the solver the probes used
    before: the reference for cone._probe_points."""
    from scipy.optimize import linprog
    d, m = directions.shape[1], a_ub.shape[1] - directions.shape[1]
    found = []
    for u in directions:
        res = linprog(np.concatenate([-u, 1e-9 * np.ones(m)]), A_ub=a_ub, b_ub=b_ub,
                      A_eq=a_eq, b_eq=b_eq, bounds=[(None, None)] * d + [(0, None)] * m,
                      method="highs")
        if res.status == 0:
            found.append(res.x[:d])
    return found


def _highs_section(monkeypatch, b, t, resolution, seed):
    with monkeypatch.context() as patch:
        patch.setattr(cone, "_probe_points", _highs_points)
        return cone_section(b, t, resolution=resolution, seed=seed)


def _probe_lp(d, rows, rhs, trace_row, level):
    """A probe program over (c, a) with one coefficient a: the rows
    rows . c <= rhs, the mass row a <= 1e4 and trace_row . c = level."""
    a_ub = np.zeros((len(rows) + 1, d + 1))
    a_ub[:-1, :d] = rows
    a_ub[-1, d] = 1.0
    return (a_ub, np.array(list(rhs) + [1e4]), np.array([list(trace_row) + [0.0]]),
            np.array([float(level)]))


# cone._probe_points before phase 2 ran in lockstep, kept as the reference
# for the stacked simplex: phase 1, then phase 2 for one direction after
# another, each pivot on a single tableau.

def _ref_tableau(rows, rhs, basis):
    tab = np.zeros((len(rows) + 1, rows.shape[1] + 1))
    try:
        tab[:-1] = np.linalg.solve(rows[:, basis], np.column_stack([rows, rhs]))
    except np.linalg.LinAlgError:
        return None
    tab[:-1, basis] = np.eye(len(basis))
    return tab


def _ref_priced(tab, basis, cost):
    tab[-1] = cost[basis] @ tab[:-1]
    tab[-1, :-1] -= cost
    tab[-1, basis] = 0.0
    return tab


def _ref_pivot(tab, basis, r, j):
    tab[r] /= tab[r, j]
    col = tab[:, j, None].copy()
    col[r] = 0.0
    tab -= col * tab[r]
    basis[r] = j


def _ref_bland(tab, basis, ncols):
    for _ in range(cone._MAX_PIVOTS):
        enters = tab[-1, :ncols] < -cone._COST_TOL
        j = enters.argmax()
        if not enters[j]:
            return True
        cand = (tab[:-1, j] > cone._PIVOT_TOL).nonzero()[0]
        if not cand.size:
            return False
        ratios = np.maximum(tab[cand, -1], 0.0) / tab[cand, j]
        ties = cand[ratios == ratios.min()]
        _ref_pivot(tab, basis, ties[np.argmin(basis[ties])], j)
    raise NumericalError(f"simplex reached {cone._MAX_PIVOTS} pivots")


def _ref_dual(tab, basis, ncols):
    for _ in range(cone._MAX_PIVOTS):
        low = (tab[:-1, -1] < -cone._FEAS_TOL).nonzero()[0]
        if not low.size:
            return True
        r = low[basis[low].argmin()]
        cand = (tab[r, :ncols] < -cone._PIVOT_TOL).nonzero()[0]
        if not cand.size:
            return False
        ratios = np.maximum(tab[-1, cand], 0.0) / -tab[r, cand]
        _ref_pivot(tab, basis, r, cand[np.argmin(ratios)])
    raise NumericalError(f"simplex reached {cone._MAX_PIVOTS} pivots")


def _ref_feasible_basis(rows, rhs, slack):
    nrows, ncols = rows.shape
    art = np.flatnonzero(slack < 0)
    tab = np.zeros((nrows + 1, ncols + len(art) + 1))
    tab[:-1, :ncols], tab[:-1, -1] = rows, rhs
    tab[art, ncols + np.arange(len(art))] = 1.0
    basis = slack.copy()
    basis[art] = ncols + np.arange(len(art))
    for r in np.flatnonzero(slack >= 0):
        tab[r] /= tab[r, slack[r]]
    tab[-1] = -tab[art].sum(axis=0)
    tab[-1, ncols:-1] = 0.0
    _ref_bland(tab, basis, ncols)
    if tab[-1, -1] < -1e-9:
        raise NumericalError("no certified probe point at this trace level")
    keep = []
    for r in range(nrows):
        if basis[r] >= ncols:
            j = int(np.argmax(np.abs(tab[r, :ncols])))
            if abs(tab[r, j]) <= cone._PIVOT_TOL:
                continue
            _ref_pivot(tab, basis, r, j)
        keep.append(r)
    return rows[keep], rhs[keep], basis[keep]


def _ref_probes(a_ub, b_ub, a_eq, b_eq, directions):
    """Each direction's probe point, or None where it gives none."""
    d = len(directions[0])
    m = a_ub.shape[1] - d
    rows, rhs, basis = _ref_feasible_basis(*cone._standard_rows(a_ub, b_ub, a_eq, b_eq, d))
    start = _ref_tableau(rows, rhs, basis)
    if start is None:
        raise NumericalError("phase 1 ended on a singular basis")
    eq_tol = 1e-9 * np.maximum(1.0, np.abs(b_eq))
    found = []
    for u in directions:
        cost = np.zeros(rows.shape[1])
        cost[:2 * d + m] = np.concatenate([u, -u, np.full(m, -cone._MASS_COST)])
        tab, final = _ref_priced(start.copy(), basis, cost), basis.copy()
        found.append(None)
        for _ in range(cone._PHASE2_RUNS):
            bounded = _ref_bland(tab, final, len(cost))
            tab = _ref_tableau(rows, rhs, final)
            if tab is None:
                break
            x = np.zeros(len(cost))
            x[final] = tab[:-1, -1]
            c, a = x[:d] - x[d:2 * d], np.maximum(x[2 * d:2 * d + m], 0.0)
            ca = np.concatenate([c, a])
            if (bounded and (a_ub @ ca - b_ub <= 1e-9).all()
                    and (np.abs(a_eq @ ca - b_eq) <= eq_tol).all()):
                found[-1] = c
                break
            if not _ref_dual(_ref_priced(tab, final, cost), final, len(cost)):
                break
    return found


def _ref_probe_points(*lp):
    return [p for p in _ref_probes(*lp) if p is not None]


def _bytes(points):
    return [p.tobytes() for p in points]


def _section_lps(b, t, resolution, seed):
    """The probe programs (a_ub, b_ub, a_eq, b_eq, directions) that
    cone_section hands to cone._probe_points."""
    lps, probe = [], cone._probe_points

    def grab(*lp):
        lps.append(lp)
        return probe(*lp)

    cone._probe_points = grab
    try:
        cone_section(b, t, resolution=resolution, seed=seed)
    finally:
        cone._probe_points = probe
    return lps


class TestProbeSimplex:
    """cone._probe_points, the float simplex behind sampled sections,
    against HiGHS.  Where a probe's optimum is a whole face the two
    solvers may return different optimal points, so tricky5's segment is
    compared by its vertices and the sections of torus dimension 3 and 4
    by their support values."""

    @pytest.mark.parametrize("resolution,t", [(12, 1), (64, 3)])
    def test_tricky5_vertices_match_highs(self, monkeypatch, resolution, t):
        for seed in range(1, 11):
            ours = np.array(cone_section(t5, t, resolution=resolution, seed=seed).vertices)
            ref = np.array(_highs_section(monkeypatch, t5, t, resolution, seed).vertices)
            dist = np.abs(ours[:, None] - ref[None]).max(axis=2)
            assert len(ours) == len(ref) == 2
            assert dist.min(axis=1).max() <= 1e-7 and dist.min(axis=0).max() <= 1e-7

    @pytest.mark.parametrize("summand", [("abelian", 1), ("heisenberg", 3)],
                             ids=["torus3", "torus4"])
    @pytest.mark.parametrize("resolution,t", [(12, 1), (64, 3)])
    def test_support_values_match_highs(self, monkeypatch, summand, resolution, t):
        """Seeds 23 and 31 on torus dimension 4 lose a vertex, and the
        support value in its directions by 1.5 to 2.5, unless a drifted
        final basis is rebuilt and repaired."""
        b = direct_sum(t5, corpus(*summand).bracket)
        d = diagonal_torus(b).dim
        assert d == (3 if summand[0] == "abelian" else 4)
        for seed in [*range(1, 11), 23, 31]:
            ours = np.array(cone_section(b, t, resolution=resolution, seed=seed).vertices)
            ref = np.array(_highs_section(monkeypatch, b, t, resolution, seed).vertices)
            dirs = cone._probe_directions(d, resolution, generator(seed, cone._CONE_STREAM))
            gap = np.abs((ours @ dirs.T).max(axis=0) - (ref @ dirs.T).max(axis=0))
            assert gap.max() <= 1e-8 * t

    @pytest.mark.parametrize("resolution,t,counts", [
        (12, 1, {22: 33, 26: 31, 29: 32, 30: 36, 38: 36}),
        (64, 3, {22: 88, 26: 88, 29: 80, 30: 86, 38: 86})])
    def test_probe_counts_on_tricky5_heisenberg3(self, monkeypatch, resolution, t, counts):
        """How many of the 36 or 88 probes give a point on tricky5 (+)
        heisenberg(3), at the seeds where some fail their check even after
        the dual repair: the counts the simplex gave before its pivots
        were written with argmax and nonzero."""
        b = direct_sum(t5, corpus("heisenberg", 3).bracket)
        found, probe = {}, cone._probe_points

        def counted(*lp):
            points = probe(*lp)
            found[seed] = len(points)
            return points

        monkeypatch.setattr(cone, "_probe_points", counted)
        for seed in counts:
            cone_section(b, t, resolution=resolution, seed=seed)
        assert found == counts

    @pytest.mark.parametrize("seed", [17, 42])
    def test_tricky5_segment_at_trace_three(self, seed):
        """The section is a segment.  HiGHS returned an endpoint 1.1e-7
        off, just past the 1e-7 dedup, and so three vertices."""
        s = cone_section(t5, 3, resolution=64, seed=seed)
        assert s.exactness == SAMPLED_INNER and len(s.vertices) == 2

    def test_empty_region_raises(self):
        # c1 <= -1 and -c1 <= 0 leave nothing
        lp = _probe_lp(2, [[1.0, 0.0], [-1.0, 0.0]], [-1.0, 0.0], [1.0, 1.0], 1)
        with pytest.raises(NumericalError, match="no certified probe point"):
            cone._probe_points(*lp, np.array([[1.0, 0.0]]))

    def test_unbounded_probes_are_skipped(self):
        # c1 >= 0 on c1 + c2 = 1: unbounded along (1, 0) and (0, -1)
        lp = _probe_lp(2, [[-1.0, 0.0]], [0.0], [1.0, 1.0], 1)
        dirs = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
        points = cone._probe_points(*lp, dirs)
        assert len(points) == 2
        assert all(np.abs(p - [0.0, 1.0]).max() <= 1e-12 for p in points)

    def test_phase1_drives_out_artificials(self, monkeypatch):
        """c1 <= 0, -c1 <= 0, c2 <= 1 and -c2 <= -1 pin c to (0, 1) on the
        trace row c1 + c2 = 1.  Phase 1 ends with two artificials basic at
        zero, pivots both out, and the signed-axis probes keep the bytes
        of the per-direction reference."""
        lp = _probe_lp(2, [[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]],
                       [0.0, 0.0, 1.0, -1.0], [1.0, 1.0], 1)
        dirs = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
        drive_outs, pivot = [], cone._pivot
        phase1 = cone._feasible_basis.__code__

        def watched(tab, basis, r, j):
            if sys._getframe(1).f_code is phase1:
                drive_outs.append((r, j))
            return pivot(tab, basis, r, j)

        monkeypatch.setattr(cone, "_pivot", watched)
        points = cone._probe_points(*lp, dirs)
        assert len(drive_outs) == 2
        assert _bytes(points) == _bytes(_ref_probe_points(*lp, dirs))
        assert len(points) == 4 and all(np.abs(p - [0.0, 1.0]).max() <= 1e-12 for p in points)

    def test_pivot_cap_raises(self, monkeypatch):
        monkeypatch.setattr(cone, "_MAX_PIVOTS", 2)
        with pytest.raises(NumericalError, match="pivots"):
            cone_section(t5, 1, resolution=12, seed=5)

    def test_points_off_their_rows_are_not_kept(self, monkeypatch):
        """Each vertex is checked against the unscaled rows: a rebuilt
        tableau whose values are shifted by 1e-6 gives no point at all."""
        rebuild = cone._tableau

        def shifted(rows, rhs, basis):
            tab = rebuild(rows, rhs, basis)
            tab[:-1, -1] += 1e-6
            return tab

        lp = _probe_lp(2, [[-1.0, 0.0]], [0.0], [1.0, 1.0], 1)
        assert len(cone._probe_points(*lp, np.array([[-1.0, 0.0]]))) == 1
        monkeypatch.setattr(cone, "_tableau", shifted)
        assert cone._probe_points(*lp, np.array([[-1.0, 0.0]])) == []


_GRID_SUMMANDS = [None, ("abelian", 1), ("heisenberg", 3)]
_GRID_SEEDS = [*range(1, 11), 22, 23, 26, 29, 30, 31, 38]
t5h3 = direct_sum(t5, corpus("heisenberg", 3).bracket)


def _random_probe_lp(rng):
    """A probe program with small integer rows around a known interior
    point (c0, a0), a0 > 0: k <= 5 rows, so that many directions are
    unbounded, and now and then the trace row twice, which phase 1 drops
    as redundant.  The directions: seeded normals, one of them repeated,
    the signed axes (exact ratio ties on integer rows), and zero, whose
    only cost is the mass, so that phase 1's basis is often optimal."""
    d, m, k = (int(x) for x in rng.integers([2, 1, 1], [4, 4, 6]))
    x0 = np.concatenate([rng.integers(-2, 3, d), rng.integers(1, 3, m) / 2])
    rows = rng.integers(-3, 4, (k, d + m)).astype(float)
    b_ub = rows @ x0 + rng.integers(1, 4, k)
    a_eq = np.zeros((1 + int(rng.integers(2)), d + m))
    a_eq[:, :d] = rng.integers(1, 3, d)
    normals = rng.standard_normal((3, d))
    dirs = np.vstack([normals, normals[:1], np.eye(d), -np.eye(d), np.zeros((1, d))])
    return rows, b_ub, a_eq, a_eq @ x0, dirs


def _outcome(probe, lp):
    try:
        return _bytes(probe(*lp))
    except NumericalError as exc:
        return str(exc)


class TestLockstepProbes:
    """cone._probe_points runs phase 2 for every direction as one stack;
    each output keeps the bytes of the per-direction loop above
    (_ref_probe_points)."""

    @pytest.mark.parametrize("summand", _GRID_SUMMANDS, ids=["tricky5", "torus3", "torus4"])
    @pytest.mark.parametrize("resolution,t", [(12, 1), (64, 3)])
    def test_sections_keep_their_bytes(self, summand, resolution, t):
        b = t5 if summand is None else direct_sum(t5, corpus(*summand).bracket)
        for seed in _GRID_SEEDS:
            [lp] = _section_lps(b, t, resolution, seed)
            assert _bytes(cone._probe_points(*lp)) == _bytes(_ref_probe_points(*lp)), seed

    def test_random_programs_keep_their_bytes(self, monkeypatch):
        """300 seeded programs.  Across them some directions leave the
        stack at once and some are unbounded; the signed axes on integer
        rows give exact ratio ties."""
        flags, still, bland = [], [], cone._bland

        def watched(tab, basis, ncols):
            before = basis.copy()
            bounded = bland(tab, basis, ncols)
            if len(tab) > 1:
                flags.extend(bounded)
                still.extend((before == basis).all(axis=1) & bounded)
            return bounded

        monkeypatch.setattr(cone, "_bland", watched)
        rng = np.random.default_rng(37)
        for i in range(300):
            lp = _random_probe_lp(rng)
            assert _outcome(cone._probe_points, lp) == _outcome(_ref_probe_points, lp), i
        assert any(still) and not all(flags)

    @pytest.mark.parametrize("seed", [23, 31])
    def test_mixed_stack(self, monkeypatch, seed):
        """tricky5 (+) heisenberg(3)'s program at resolution 12 with a free
        coordinate that no row reads: one stack holds directions optimal
        after the first run, directions that look unbounded after it and
        that the dual repair brings to a kept vertex, and five truly
        unbounded ones (along the free coordinate)."""
        [(a_ub, b_ub, a_eq, b_eq, dirs)] = _section_lps(t5h3, 1, 12, seed)
        d = dirs.shape[1]
        free = np.eye(d + 1)[d]
        widen = lambda a: np.insert(a, d, 0.0, axis=1)
        dirs = np.vstack([widen(dirs), free, -free, widen(dirs[:3]) + free])
        lp = widen(a_ub), b_ub, widen(a_eq), b_eq, dirs
        flags, bland = [], cone._bland

        def watched(tab, basis, ncols):
            flags.append(bland(tab, basis, ncols))
            return flags[-1]

        monkeypatch.setattr(cone, "_bland", watched)
        got = cone._probe_points(*lp)
        want = _ref_probes(*lp)
        assert _bytes(got) == _bytes([p for p in want if p is not None])
        first = next(f for f in flags if len(f) == len(dirs))
        kept = np.array([p is not None for p in want])
        assert (first & kept).any() and (~first & kept).any()
        assert not kept[-5:].any() and not first[-5:].any()

    def test_singular_basis_costs_only_its_directions(self, monkeypatch):
        """A final basis made singular in the stack: the stacked solve
        raises, every direction is rebuilt alone, and only the directions
        that end on that basis give no point."""
        [lp] = _section_lps(t5, 1, 12, 5)
        want = _ref_probes(*lp)
        solve, seen = np.linalg.solve, []
        monkeypatch.setattr(np.linalg, "solve", lambda a, b: seen.append(a.copy()) or solve(a, b))
        cone._probe_points(*lp)
        start, finals = seen[0][0], seen[1]
        assert len(finals) == len(want)
        k = next(i for i, B in enumerate(finals) if not np.array_equal(B, start))

        def singular(a, b):
            if len(a) > 1 or np.array_equal(a[0], finals[k]):
                raise np.linalg.LinAlgError("Singular matrix")
            return solve(a, b)

        monkeypatch.setattr(np.linalg, "solve", singular)
        got = cone._probe_points(*lp)
        lost = [np.array_equal(B, finals[k]) for B in finals]
        assert 0 < sum(lost) < len(lost)
        assert _bytes(got) == _bytes([p for p, gone in zip(want, lost)
                                      if p is not None and not gone])

    def test_pivot_cap_holds_in_the_stack(self, monkeypatch):
        """On tricky5's program (resolution 12, seed 5) phase 1 takes 10
        pivots and phase 2 up to 13: a cap of 13 lets phase 1 finish and
        stops the stack, 14 lets it finish with the reference's bytes."""
        [lp] = _section_lps(t5, 1, 12, 5)
        monkeypatch.setattr(cone, "_MAX_PIVOTS", 13)
        for probe in (cone._probe_points, _ref_probe_points):
            with pytest.raises(NumericalError, match="13 pivots"):
                probe(*lp)
        monkeypatch.setattr(cone, "_MAX_PIVOTS", 14)
        assert _bytes(cone._probe_points(*lp)) == _bytes(_ref_probe_points(*lp))

    def test_stacked_pricing_matches_one_tableau_at_a_time(self):
        rng = np.random.default_rng(5)
        for _ in range(300):
            K, R, C = (int(x) for x in rng.integers([1, 1, 1], [9, 9, 60]))
            C += R
            tabs = rng.standard_normal((K, R + 1, C + 1))
            bases = np.array([rng.choice(C, R, replace=False) for _ in range(K)])
            costs = rng.standard_normal((K, C))
            want = [_ref_priced(t.copy(), bs, c) for t, bs, c in zip(tabs, bases, costs)]
            got = cone._priced(tabs.copy(), bases, costs)
            assert got.tobytes() == np.array(want).tobytes()


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

    @pytest.mark.parametrize("t", [Fraction(1, 10**400), Fraction(3, 7), 10**400],
                             ids=["1e-400", "3/7", "1e400"])
    def test_exact_sections_are_measured_at_level_one(self, t):
        """An exact section's report, a violated one too, is its level-1
        report at every level, in float range or past it."""
        def report(section, drop):
            rep = weyl_invariance_check(ConeSection(
                section.torus, section.trace_level, section.vertices[drop:],
                section.exactness, section.halfspaces))
            return rep.ok, rep.actions_checked, rep.worst_distance, rep.failures

        for b in (h3, h5):
            for drop in (0, 1):
                assert report(cone_section(b, t), drop) == report(cone_section(b, 1), drop)


class TestAudit:
    def test_h3_full_success(self):
        rep = containment_audit(h3, cone_section(h3, 1), probes=20, seed=5)
        assert rep.witnesses == rep.probes == 20
        assert rep.worst_lambda < -1e-6
        assert rep.failures == ()

    def test_probe_count_gate(self):
        with pytest.raises(PreconditionError):
            containment_audit(h3, cone_section(h3, 1), probes=0)
