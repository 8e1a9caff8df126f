"""Exact convex hulls and polytope vertices by double description.

Both entry points reduce to one routine, `_extreme_rays`: the extreme
rays of a pointed cone {z : G z >= 0} by the double description method
(Motzkin, Raiffa, Thompson and Thrall 1953; Fukuda and Prodon, "Double
description method revisited", 1996), in Python integers.

- `hrep_vertices` homogenises {x : A x <= b, E x = f}; its vertices are
  the rays with t > 0.
- `exact_hull` and `extreme_points` read the facets of conv(points) off
  the rays of the cone {(beta, phi) : beta - phi . q >= 0 for every q}.

Face identifications are therefore combinatorial facts, not tolerance
calls.  The cone routine grows with its ray count, not with the number
of row subsets; what stays exponential is the face lattice that
`exact_hull` closes under intersection (up to 2^m faces of m points),
and MAX_POINTS bounds that.  `extreme_points` needs no lattice.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction

from . import _rational
from .errors import PreconditionError

MAX_POINTS = 16


def _fraction_point(p):
    return tuple(Fraction(x) for x in p)


@dataclass(frozen=True)
class Hull:
    """Face lattice of the convex hull of a finite point set.

    `unique` holds the deduplicated points and `to_unique[i]` maps input
    index i to its representative.  `faces` lists every nonempty face as
    a frozenset of unique indices (all points lying on the face, extreme
    or not), sorted by size then lexicographically; the full index set
    is always the last entry.  `extreme` indexes the points that are
    vertices of the hull.
    """

    points: tuple
    unique: tuple
    to_unique: tuple
    dim: int
    extreme: tuple
    facets: tuple
    faces: tuple


def _affine_coordinates(unique):
    """Exact coordinates of the points on their own affine hull.

    Returns (dim, coords).  Uses the reduced row form of the difference
    vectors; because pivot columns of reduced rows carry an identity
    block, each coordinate is read straight off the pivot entries.
    """
    base = unique[0]
    n = len(base)
    diffs = [[p[t] - base[t] for t in range(n)] for p in unique]
    rows, pivots = _rational.rref(diffs)
    basis = [r for r in rows if any(x != 0 for x in r)]
    d = len(basis)
    coords = []
    for p in unique:
        delta = [p[t] - base[t] for t in range(n)]
        x = [delta[pc] for pc in pivots[:d]]
        # the difference must reconstruct exactly from the basis
        for t in range(n):
            s = sum(x[m] * basis[m][t] for m in range(d))
            if s != delta[t]:
                raise PreconditionError("points do not lie on a common rational "
                                        "affine subspace of the expected rank")
        coords.append(tuple(x))
    return d, coords


def _face_sort_key(face):
    return (len(face), tuple(sorted(face)))


def _primitive(ints):
    """An integer vector divided by the gcd of its entries."""
    g = math.gcd(*ints)
    return tuple(x // g for x in ints) if g > 1 else tuple(ints)


def _integer_row(row):
    """A rational row scaled to coprime integers."""
    return _primitive(_rational._integer_row(row)[0])


def _extreme_rays(G):
    """Extreme rays of the cone {z : G z >= 0}, as (ray, zero set) pairs.

    A ray is a tuple of coprime integers; its zero set is a bitmask of
    the rows of G that vanish on it.  Empty unless G has full column
    rank, that is unless the cone is pointed.  The rays of the simplex
    cone cut out by rank-many independent rows are the columns of their
    inverse; each further row keeps the rays on its nonnegative side and
    joins every adjacent pair it separates.  Two rays are adjacent when
    no third ray vanishes on every row that both vanish on.
    """
    rows = [_integer_row(r) for r in G]
    n = len(rows[0])
    _, basis = _rational.rref(list(zip(*rows)))
    if len(basis) < n:
        return []
    inv = _rational.inverse([rows[i] for i in basis])
    rays = [(_integer_row([inv[i][j] for i in range(n)]),
             sum(1 << basis[i] for i in range(n) if i != j)) for j in range(n)]
    for k, row in enumerate(rows):
        if k in basis:
            continue
        bit = 1 << k
        pos, neg, kept = [], [], []
        for ray, zero in rays:
            s = sum(a * x for a, x in zip(row, ray))
            if s > 0:
                pos.append((ray, zero, s))
                kept.append((ray, zero))
            elif s < 0:
                neg.append((ray, zero, s))
            else:
                kept.append((ray, zero | bit))
        for rp, zp, sp in pos:
            for rn, zn, sn in neg:
                common = zp & zn
                if common.bit_count() < n - 2 or any(
                        z & common == common and z != zp and z != zn for _, z in rays):
                    continue
                kept.append((_primitive([sp * b - sn * a for a, b in zip(rp, rn)]),
                             common | bit))
        rays = kept
    return rays


def _distinct(points):
    """The points as Fraction tuples, their distinct values in first-seen
    order, and each point's index among those."""
    pts = tuple(_fraction_point(p) for p in points)
    if not pts:
        raise PreconditionError("hull of an empty point set")
    index = {}
    to_unique = tuple(index.setdefault(p, len(index)) for p in pts)
    return pts, tuple(index), to_unique


def _facets(unique):
    """The affine dimension of distinct points, one bitmask of the points
    on each facet of their hull (a facet phi . x <= beta holds the points
    of its ray's zero set), and the extreme points' indices: point i is
    extreme exactly when the facets through it meet in {i} alone."""
    d, coords = _affine_coordinates(unique)
    masks = [zero for _, zero in
             _extreme_rays([(Fraction(1),) + tuple(-x for x in q) for q in coords])]
    full = (1 << len(unique)) - 1
    return d, masks, tuple(i for i in range(len(unique)) if functools.reduce(
        operator.and_, (zero for zero in masks if zero >> i & 1), full) == 1 << i)


def extreme_points(points) -> tuple:
    """Indices of the input points that are vertices of conv(points), the
    first occurrence of each, in input order."""
    _, unique, to_unique = _distinct(points)
    return tuple(to_unique.index(i) for i in _facets(unique)[2])


def exact_hull(points) -> Hull:
    """Face lattice, facets, and extreme points of conv(points)."""
    pts, unique, to_unique = _distinct(points)
    if len(unique) > MAX_POINTS:
        raise PreconditionError(
            f"{len(unique)} distinct points exceeds the hull bound {MAX_POINTS}")

    d, masks, extreme = _facets(unique)
    full = frozenset(range(len(unique)))
    if d == 0:
        return Hull(pts, unique, to_unique, 0, extreme, (), (full,))

    facets = {frozenset(i for i in full if zero >> i & 1) for zero in masks}
    faces, frontier = set(facets), set(facets)
    while frontier:
        frontier = {f & g for f in frontier for g in facets} - faces - {frozenset()}
        faces |= frontier
    faces.add(full)
    return Hull(pts, unique, to_unique, d, extreme, tuple(sorted(facets, key=_face_sort_key)),
                tuple(sorted(faces, key=_face_sort_key)))


def hrep_vertices(a_ub, b_ub, a_eq=None, b_eq=None):
    """Vertices of the polyhedron {x : a_ub x <= b_ub, a_eq x = b_eq}.

    The equality rows are solved exactly, x = x0 + N y with N a null
    space basis, and {y : a_ub (x0 + N y) <= b_ub} is homogenised to the
    cone of (y, t) with t >= 0.  Its extreme rays with t > 0 are the
    vertices, returned sorted; the rays with t = 0 are the unbounded
    directions, which are dropped.  An empty polyhedron, or one that
    contains a line, has no vertex and gives ().
    """
    a_ub = [_fraction_point(r) for r in a_ub]
    b_ub = [Fraction(v) for v in b_ub]
    a_eq = [_fraction_point(r) for r in (a_eq or [])]
    b_eq = [Fraction(v) for v in (b_eq or [])]
    if not a_ub and not a_eq:
        raise PreconditionError("no constraints given")
    n = len(a_ub[0]) if a_ub else len(a_eq[0])
    if len(a_eq) > n:
        raise PreconditionError("more equality rows than variables")
    x0 = _rational.solve(a_eq, b_eq) if a_eq else [Fraction(0)] * n
    if x0 is None:
        return ()
    null = _rational.nullspace(a_eq, ncols=n)
    cone = [[-sum(r[t] * v[t] for t in range(n)) for v in null]
            + [bv - sum(r[t] * x0[t] for t in range(n))] for r, bv in zip(a_ub, b_ub)]
    cone.append([0] * len(null) + [1])
    vertices = []
    for ray, _ in _extreme_rays(cone):
        t = ray[-1]
        if t > 0:
            vertices.append(tuple(x0[s] + sum(Fraction(y, t) * v[s] for y, v in zip(ray, null))
                                  for s in range(n)))
    return tuple(sorted(vertices))
