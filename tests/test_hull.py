import itertools
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rnlie import _rational
from rnlie._exactlp import solve_lp
from rnlie._hull import (MAX_POINTS, Hull, _affine_coordinates, exact_hull,
                         extreme_points, hrep_vertices)
from rnlie.corpus import _NEEDS_PARAM, corpus, corpus_names
from rnlie.errors import PreconditionError
from rnlie.moment import weight_polytope, weight_vector


def wv(i, j, k, n=5):
    v = [0] * n
    v[i] -= 1
    v[j] -= 1
    v[k] += 1
    return tuple(v)


def test_rectangle_face_lattice():
    # four weight diagonals forming a planar rectangle
    h = exact_hull([wv(0, 1, 2), wv(0, 1, 3), wv(0, 2, 4), wv(0, 3, 4)])
    assert h.dim == 2
    assert h.extreme == (0, 1, 2, 3)
    assert len(h.facets) == 4
    assert len(h.faces) == 9
    edges = {f for f in h.faces if len(f) == 2}
    # the rectangle's diagonals are 02 and 13, never faces
    assert frozenset({0, 2}) not in edges
    assert frozenset({1, 3}) not in edges
    assert edges == {frozenset(e) for e in [(0, 1), (1, 2), (2, 3), (0, 3)]}


def test_segment_and_point():
    seg = exact_hull([wv(0, 1, 4), wv(2, 3, 4)])
    assert seg.dim == 1 and len(seg.faces) == 3 and seg.extreme == (0, 1)
    pt = exact_hull([(-1, -1, 1)])
    assert pt.dim == 0 and pt.faces == (frozenset({0}),) and pt.extreme == (0,)


def test_duplicates_collapse():
    h = exact_hull([(0, 0), (2, 0), (1, 0), (2, 0)])
    assert h.to_unique == (0, 1, 2, 1)
    assert h.extreme == (0, 1)
    # the interior point only shows up on the full face
    assert frozenset({0, 1, 2}) in h.faces and len(h.faces) == 3


def test_interior_point_not_extreme():
    h = exact_hull([(0, 0), (1, 0), (0, 1), (1, 1), (F(1, 2), F(1, 2))])
    assert h.extreme == (0, 1, 2, 3)
    assert len(h.faces) == 9


def test_simplex_3d():
    h = exact_hull([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)])
    assert h.dim == 3
    assert len(h.facets) == 4
    # 4 vertices + 6 edges + 4 facets + 1 full
    assert len(h.faces) == 15


def test_too_many_points():
    pts = [(i, i * i) for i in range(17)]
    with pytest.raises(PreconditionError):
        exact_hull(pts)
    # the extreme points need no face lattice, so no bound
    assert extreme_points(pts) == tuple(range(17))


def test_hrep_unit_square():
    vs = hrep_vertices([[1, 0], [-1, 0], [0, 1], [0, -1]], [1, 0, 1, 0])
    assert vs == ((F(0), F(0)), (F(0), F(1)), (F(1), F(0)), (F(1), F(1)))


def test_hrep_with_equality():
    # triangle cut by x + y + z = 1 in the nonnegative octant
    a_ub = [[-1, 0, 0], [0, -1, 0], [0, 0, -1]]
    vs = hrep_vertices(a_ub, [0, 0, 0], a_eq=[[1, 1, 1]], b_eq=[1])
    assert len(vs) == 3
    assert all(sum(v) == 1 for v in vs)
    # a dependent equality row cuts nothing more
    assert hrep_vertices(a_ub, [0, 0, 0], a_eq=[[1, 1, 1], [2, 2, 2]], b_eq=[1, 2]) == vs


# -- brute-force reference ------------------------------------------------
#
# The subset enumerators that double description replaced: every vertex
# solves some choice of active rows, and every facet is spanned by some
# d-subset of the points.  Exponential, but independent of the cone
# routine, and exact.

def _reference_hrep_vertices(a_ub, b_ub, a_eq=(), b_eq=()):
    a_ub = [[F(x) for x in r] for r in a_ub]
    b_ub = [F(v) for v in b_ub]
    a_eq = [[F(x) for x in r] for r in a_eq]
    b_eq = [F(v) for v in b_eq]
    n = len(a_ub[0]) if a_ub else len(a_eq[0])
    vertices = set()
    for chosen in itertools.combinations(range(len(a_ub)), n - len(a_eq)):
        rows = a_eq + [a_ub[i] for i in chosen]
        sol = _rational.solve(rows, b_eq + [b_ub[i] for i in chosen])
        if sol is None or len(_rational.rref(rows)[1]) < n:
            continue
        x = tuple(sol)
        if all(sum(r[t] * x[t] for t in range(n)) <= bv for r, bv in zip(a_ub, b_ub)):
            vertices.add(x)
    return tuple(sorted(vertices))


def _reference_facets(coords, d):
    facets = set()
    for subset in itertools.combinations(range(len(coords)), d):
        q0 = coords[subset[0]]
        rows = [[coords[s][t] - q0[t] for t in range(d)] for s in subset[1:]]
        kernel = _rational.nullspace(rows, ncols=d)
        if len(kernel) != 1:
            continue
        phi = kernel[0]
        values = [sum(phi[t] * (q[t] - q0[t]) for t in range(d)) for q in coords]
        if all(v >= 0 for v in values) or all(v <= 0 for v in values):
            facets.add(frozenset(i for i, v in enumerate(values) if v == 0))
    return facets


def _reference_extreme(coords):
    """Points that are no convex combination of the others, one LP each."""
    out = []
    for r, q in enumerate(coords):
        others = [p for i, p in enumerate(coords) if i != r]
        a_eq = [[p[t] for p in others] for t in range(len(q))] + [[F(1)] * len(others)]
        res = solve_lp([F(0)] * len(others), a_eq=a_eq, b_eq=list(q) + [F(1)],
                       nonneg=[True] * len(others))
        if res.status == "infeasible":
            out.append(r)
    return tuple(out)


def _reference_hull(points):
    pts = tuple(tuple(F(x) for x in p) for p in points)
    unique = tuple(dict.fromkeys(pts))
    to_unique = tuple(unique.index(p) for p in pts)
    d, coords = _affine_coordinates(unique)
    full = frozenset(range(len(unique)))
    if d == 0:
        return Hull(pts, unique, to_unique, 0, (0,), (), (full,))
    facets = _reference_facets(coords, d)
    faces = set(facets)
    while True:
        meets = {f & g for f in faces for g in facets} - {frozenset()}
        if meets <= faces:
            break
        faces |= meets
    faces.add(full)
    key = lambda f: (len(f), tuple(sorted(f)))  # noqa: E731
    return Hull(pts, unique, to_unique, d, _reference_extreme(coords),
                tuple(sorted(facets, key=key)), tuple(sorted(faces, key=key)))


def _assert_same_hull(points):
    got, want = exact_hull(points), _reference_hull(points)
    for field in ("points", "unique", "to_unique", "dim", "extreme", "facets", "faces"):
        assert repr(getattr(got, field)) == repr(getattr(want, field)), field


# -- property tests against the reference ---------------------------------

_small = st.integers(-2, 2)


@st.composite
def _polytopes(draw):
    """A box around the origin cut by a few small integer rows, with an
    optional equality row; small coefficients make degenerate vertices
    (more tight rows than the dimension) common."""
    n = draw(st.integers(1, 4))
    a_ub, b_ub = [], []
    for i in range(n):
        for sign in (1, -1):
            a_ub.append([sign * int(t == i) for t in range(n)])
            b_ub.append(draw(st.integers(0, 2)))
    for _ in range(draw(st.integers(0, 6 - n))):
        a_ub.append(draw(st.lists(_small, min_size=n, max_size=n)))
        b_ub.append(draw(st.integers(-1, 3)))
    eq = draw(st.none() | st.tuples(st.lists(_small, min_size=n, max_size=n)
                                     .filter(any), _small))
    a_eq, b_eq = ([eq[0]], [eq[1]]) if eq else ([], [])
    return a_ub, b_ub, a_eq, b_eq


# a square pyramid (four facets through the apex) and a cut square
# whose corner (1, 0) meets three rows
@example(([[0, 0, -1], [1, 0, 1], [-1, 0, 1], [0, 1, 1], [0, -1, 1]], [0, 1, 1, 1, 1], [], []))
@example(([[1, 0], [-1, 0], [0, 1], [0, -1], [1, 1]], [1, 0, 1, 0, 1], [], []))
@example(([[1, 0, 0], [0, 1, 0], [0, 0, 1], [-1, -1, -1]], [1, 1, 1, 0],
          [[1, 1, 1]], [1]))
@settings(max_examples=150)
@given(_polytopes())
def test_hrep_matches_subset_enumeration(poly):
    a_ub, b_ub, a_eq, b_eq = poly
    got = hrep_vertices(a_ub, b_ub, a_eq=a_eq, b_eq=b_eq)
    assert repr(got) == repr(_reference_hrep_vertices(a_ub, b_ub, a_eq, b_eq))


@st.composite
def _point_sets(draw):
    """Integer combinations of a few small generators: lower-dimensional
    when the generators are fewer than the ambient dimension, with
    duplicates, and with interior points (midpoints of drawn ones)."""
    n = draw(st.integers(1, 4))
    gens = draw(st.lists(st.lists(_small, min_size=n, max_size=n).filter(any),
                         min_size=1, max_size=n))
    base = draw(st.lists(_small, min_size=n, max_size=n))
    coeffs = draw(st.lists(st.lists(_small, min_size=len(gens), max_size=len(gens)),
                           min_size=n + 1, max_size=10))
    pts = [tuple(F(base[t] + sum(c * g[t] for c, g in zip(cs, gens))) for t in range(n))
           for cs in coeffs]
    pts += [tuple((p[t] + q[t]) / 2 for t in range(n))
            for p, q in draw(st.lists(st.tuples(st.sampled_from(pts), st.sampled_from(pts)),
                                      max_size=3))]
    pts += draw(st.lists(st.sampled_from(pts), max_size=3))
    return pts


@example([(0, 0), (2, 0), (1, 0), (2, 0)])
@example([(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0), (F(1, 2), F(1, 2), 0)])
@example([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1), (F(1, 4), F(1, 4), F(1, 4))])
@settings(max_examples=150)
@given(_point_sets())
def test_hull_matches_subset_enumeration(points):
    _assert_same_hull(points)
    h = exact_hull(points)
    first = [h.to_unique.index(u) for u in h.extreme]
    assert extreme_points(points) == tuple(sorted(first))


@st.composite
def _large_point_sets(draw):
    """17 to 30 distinct small integer points in one to four dimensions,
    some sets on a hyperplane, then up to 10 midpoints and repeats of
    them: past MAX_POINTS, with many points on edges and facets that are
    not extreme."""
    n = draw(st.integers(1, 4))
    flat = n > 1 and draw(st.booleans())
    key = (lambda c: tuple(c[:-1])) if flat else tuple
    pts = []
    for coords in draw(st.lists(st.lists(st.integers(-9, 9), min_size=n, max_size=n),
                                min_size=17, max_size=30, unique_by=key)):
        if flat:  # on the hyperplane x_1 + ... + x_n = 1
            coords[-1] = 1 - sum(coords[:-1])
        pts.append(tuple(F(x) for x in coords))
    pts += [tuple((p[t] + q[t]) / 2 for t in range(n))
            for p, q in draw(st.lists(st.tuples(st.sampled_from(pts), st.sampled_from(pts)),
                                      max_size=10))]
    return pts


@settings(max_examples=40)
@given(_large_point_sets())
def test_extreme_points_past_max_points(points):
    """The lattice-free rule against one LP per point, on sets exact_hull
    refuses to close into a face lattice."""
    unique = tuple(dict.fromkeys(points))
    assert MAX_POINTS < len(unique) <= len(points) <= 40
    _, coords = _affine_coordinates(unique)
    want = [points.index(unique[i]) for i in _reference_extreme(coords)]
    assert extreme_points(points) == tuple(sorted(want))


def _corpus_brackets():
    """The nonzero corpus brackets of dimension at most 8, the entries
    the subset enumeration below checks in a few seconds."""
    max_dim = 8
    for name in corpus_names():
        params = range(1, max_dim + 1) if name in _NEEDS_PARAM else [None]
        for param in params:
            try:
                b = corpus(name, param).bracket
            except PreconditionError:
                continue  # outside the entry's parameter range
            if not b.is_zero() and b.dim <= max_dim:
                yield f"{name}:{param}", b


def test_corpus_weight_polytopes_match_subset_enumeration():
    checked = 0
    for entry, b in _corpus_brackets():
        wp = weight_polytope(b)
        want = _reference_hull([weight_vector(t, b.dim) for t in sorted(b.constants)])
        assert repr(wp.hull) == repr(want), entry
        checked += 1
    assert checked == 19
