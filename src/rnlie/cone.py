"""The open convex cone of certifiably Ricci-negative diagonal derivations.

Membership goes through the certificate routes.  A cross-section at a
trace level is exact when the basis is nice with a multiplicity-free
torus: Fourier-Motzkin elimination of the multipliers gives the facet
rows, and double description (`_hull.hrep_vertices`) their vertices.
Otherwise it is a seeded inner approximation by support probes.

MAX_EXACT_TORUS_DIM bounds the exact regime.  What it protects now is
the elimination, whose row count can square with each multiplier it
drops, and the vertex count, which double description pays for (3^k
rows and k 2^k vertices on heisenberg(2k+1), torus dimension k + 1).
Raising it turns a refusal into a section, which is a verdict change of
its own.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from ._hull import exact_hull, hrep_vertices
from .brackets import Bracket
from .certify import (Infeasible, RnWitness, SrnCertificate, _nice_margin,
                      certify_srn_sampled, search_rn_metric)
from .derivations import (Torus, diagonal_derivation, diagonal_torus,
                          weyl_coordinate_actions)
from .errors import NumericalError, PreconditionError
from .moment import (TORUS_CENTRALIZER, nice_basis_check, orbit_sample,
                     weight_vector)
from .rng import default_seed, generator

IN = "In"
OUT = "Out"
UNKNOWN = "Unknown"

EXACT = "Exact"
SAMPLED_INNER = "SampledInner"

MAX_EXACT_TORUS_DIM = 4
# orbit points drawn for a membership verdict or a sampled section
SAMPLE_COUNT = 48
_CONE_STREAM = 31
_PROBE_MARGIN = 1e-6


def _exact_regime(b: Bracket, torus: Torus) -> bool:
    return nice_basis_check(b).ok and torus.multiplicity_free


def cone_membership(D, b: Bracket, seed=None) -> str:
    """Verdict for a diagonal derivation against the open cone.

    "In" needs a positive trace and a certificate (exact LP on a nice
    multiplicity-free basis, sampled LP over a torus-centralizer orbit
    otherwise).  "Out" is only asserted when it is definitive: trace
    not positive, or exact infeasibility in the exact regime.  D must
    pass diagonal_derivation.
    """
    torus = diagonal_torus(b)
    diag = diagonal_derivation(D, b)
    if float(sum(diag)) <= 1e-10:
        return OUT  # the cone sits inside the open half space tr > 0
    if _exact_regime(b, torus):
        res = _nice_margin([Fraction(v) for v in diag], b)
        if isinstance(res, SrnCertificate):
            return IN
        assert isinstance(res, Infeasible)
        return OUT if res.margin <= 0 else UNKNOWN
    sample = orbit_sample(TORUS_CENTRALIZER, b, count=SAMPLE_COUNT, seed=seed)
    res = certify_srn_sampled(diag, b, sample)
    return IN if isinstance(res, SrnCertificate) else UNKNOWN


@dataclass(frozen=True, eq=False)
class ConeSection:
    """Trace-level cross-section of the cone, in torus coordinates.

    `vertices` spans the section as a convex hull; `halfspaces` carries
    the homogeneous facet rows A c <= 0 of the cone in the exact
    regime and is None for sampled sections.
    """

    torus: Torus
    trace_level: object
    vertices: tuple
    exactness: str
    halfspaces: tuple | None = None

    def __post_init__(self):
        tr = self.torus.trace_functional()
        for v in self.vertices:
            total = sum(f * x for f, x in zip(tr, v))
            if abs(float(total) - float(self.trace_level)) > 1e-8:
                raise NumericalError("section vertex off the trace level")


def _fm_eliminate(rows, keep, drop):
    """Fourier-Motzkin elimination of the `drop` columns from exact rows
    (a, rhs) read as a . x <= rhs; returns rows over the `keep` columns."""
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
                a_new = [t * x + s * y for x, y in zip(ap, an)]
                out.append((a_new, t * rp + s * rn))
        work = out
    cleaned = []
    seen = set()
    for a, r in work:
        proj = [a[c] for c in keep]
        lead = next((x for x in proj if x != 0), None)
        if lead is None:
            if r < 0:
                raise NumericalError("elimination produced an empty system")
            continue
        scale = abs(lead)
        key = (tuple(x / scale for x in proj), r / scale)
        if key not in seen:
            seen.add(key)
            cleaned.append(([x / scale for x in proj], r / scale))
    return cleaned


def _exact_section(b: Bracket, torus: Torus, t) -> ConeSection:
    d = torus.dim
    triples = tuple(sorted(b.constants))
    m = len(triples)
    # variables (c_1..c_d, b_1..b_m); closure rows of the margin system
    rows = []
    basis_cols = [[torus.basis[l][i] for l in range(d)] for i in range(b.dim)]
    weights = [weight_vector(tr, b.dim) for tr in triples]
    for r in range(b.dim):
        a = [-Fraction(v) for v in basis_cols[r]]
        a += [Fraction(w[r]) for w in weights]
        rows.append((a, Fraction(0)))
    for a_i in range(m):
        a = [Fraction(0)] * (d + m)
        a[d + a_i] = Fraction(-1)
        rows.append((a, Fraction(0)))
    halfspaces = _fm_eliminate(rows, keep=list(range(d)),
                               drop=list(range(d, d + m)))
    a_ub = [a for a, _ in halfspaces]
    b_ub = [r for _, r in halfspaces]
    trace_row = [Fraction(f) for f in torus.trace_functional()]
    level = Fraction(t)
    verts = hrep_vertices(a_ub, b_ub, a_eq=[trace_row], b_eq=[level])
    if not verts:
        raise NumericalError("empty section; is the trace level positive?")
    return ConeSection(torus, level, tuple(verts), EXACT,
                       tuple((tuple(a), r) for a, r in halfspaces))


def _probe_directions(d: int, resolution: int, rng) -> np.ndarray:
    dirs = []
    for mask in range(2 ** d):
        dirs.append([1.0 if (mask >> i) & 1 else -1.0 for i in range(d)])
    for i in range(d):
        e = [0.0] * d
        e[i] = 1.0
        dirs.append(list(e))
        e2 = [0.0] * d
        e2[i] = -1.0
        dirs.append(e2)
    extra = rng.standard_normal((max(0, int(resolution)), d))
    for row in extra:
        norm = float(np.linalg.norm(row))
        if norm > 1e-12:
            dirs.append([float(x) / norm for x in row])
    return np.array(dirs)


def _sampled_section(b: Bracket, torus: Torus, t, resolution, seed) -> ConeSection:
    from scipy.optimize import linprog

    seed = default_seed() if seed is None else int(seed)
    rng = generator(seed, _CONE_STREAM)
    sample = orbit_sample(TORUS_CENTRALIZER, b, count=SAMPLE_COUNT, seed=seed)
    pts = sample.diagonals()
    d, n, m = torus.dim, b.dim, len(sample.points)
    basis = np.array([[float(x) for x in row] for row in torus.basis])
    trace_row = np.array([float(f) for f in torus.trace_functional()])
    # joint program over (c, coeffs): push c along u subject to the
    # certificate rows D(c) - sum coeff p >= probe margin
    a_ub = np.zeros((n + 1, d + m))
    a_ub[:n, :d] = -basis.T
    a_ub[:n, d:] = pts.T
    a_ub[n, d:] = 1.0  # total coefficient mass stays moderate
    b_ub = np.concatenate([-_PROBE_MARGIN * np.ones(n), [1e4]])
    a_eq = np.zeros((1, d + m))
    a_eq[0, :d] = trace_row
    b_eq = np.array([float(t)])
    bounds = [(None, None)] * d + [(0, None)] * m
    found = []
    for u in _probe_directions(d, resolution, rng):
        c_obj = np.concatenate([-u, 1e-9 * np.ones(m)])
        res = linprog(c_obj, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=b_eq,
                      bounds=bounds, method="highs")
        if res.status == 0:
            found.append(res.x[:d])
    if not found:
        raise NumericalError("no certified probe point at this trace level")
    found = np.array(found)
    keep = []
    for row in found:
        if not any(np.abs(row - k).max() <= 1e-7 for k in keep):
            keep.append(row)
    verts = _extreme_subset(np.array(keep))
    return ConeSection(torus, float(t), verts, SAMPLED_INNER, None)


def _extreme_subset(points: np.ndarray) -> tuple:
    if len(points) == 1:
        return (tuple(float(x) for x in points[0]),)
    if points.shape[1] == 1:
        lo, hi = points[:, 0].min(), points[:, 0].max()
        return ((float(lo),), (float(hi),))
    if len(points) <= 16:
        hull = exact_hull([tuple(Fraction(float(x)) for x in p)
                           for p in points])
        return tuple(tuple(float(x) for x in hull.unique[i])
                     for i in hull.extreme)
    from scipy.spatial import ConvexHull, QhullError

    try:
        hull = ConvexHull(points)
        idx = sorted(set(int(i) for i in hull.vertices))
    except QhullError:
        idx = range(len(points))
    return tuple(tuple(float(x) for x in points[i]) for i in idx)


def cone_section(b: Bracket, t, resolution: int = 64, seed=None) -> ConeSection:
    """Cross-section of the cone at trace level t, as a polytope in
    torus coordinates.

    Exact when the basis is nice with a multiplicity-free torus of
    dimension at most MAX_EXACT_TORUS_DIM (Fourier-Motzkin elimination of
    the multipliers, then the vertices by exact double description).
    Any torus of larger dimension raises PreconditionError.  Otherwise a
    seeded inner approximation from support probes over a sampled orbit.
    """
    if float(t) <= 0:
        raise PreconditionError("the cone meets only positive trace levels")
    torus = diagonal_torus(b)
    if torus.dim == 0:
        raise PreconditionError("the diagonal torus is zero dimensional")
    if _exact_regime(b, torus) and torus.dim <= MAX_EXACT_TORUS_DIM:
        return _exact_section(b, torus, t)
    if torus.dim > MAX_EXACT_TORUS_DIM:
        raise PreconditionError(
            f"torus dimension {torus.dim} is over the exact bound "
            f"{MAX_EXACT_TORUS_DIM}; no exact section")
    return _sampled_section(b, torus, t, resolution, seed)


@dataclass(frozen=True, eq=False)
class WeylReport:
    ok: bool
    actions_checked: int
    worst_distance: float
    failures: tuple = ()


def weyl_invariance_check(section: ConeSection) -> WeylReport:
    """Check the vertex set is carried to itself by each coordinate
    action of the signed permutation automorphisms (exactly in the
    exact regime, Hausdorff distance below 1e-6 otherwise)."""
    actions = weyl_coordinate_actions(section.torus.bracket, section.torus)
    verts = [np.array([float(x) for x in v]) for v in section.vertices]
    V = np.array(verts)
    worst = 0.0
    failures = []
    for a_i, act in enumerate(actions):
        M = np.array([[float(x) for x in row] for row in act])
        img = V @ M.T
        dist = 0.0
        for row in img:
            dist = max(dist, float(np.min(np.linalg.norm(V - row, axis=1))))
        for row in V:
            dist = max(dist, float(np.min(np.linalg.norm(img - row, axis=1))))
        worst = max(worst, dist)
        if dist > 1e-6:
            failures.append((a_i, dist))
    return WeylReport(not failures, len(actions), worst, tuple(failures))


@dataclass(frozen=True, eq=False)
class AuditReport:
    probes: int
    witnesses: int
    worst_lambda: float
    failures: tuple = ()


def containment_audit(b: Bracket, section: ConeSection, probes: int = 50,
                      seed=None) -> AuditReport:
    """Drive interior points of the section through the metric search.

    Every probe must produce a witness with a negative top Ricci
    eigenvalue within 4000 evaluations; any failure lands in the report
    and signals that the section over-approximates, which must not
    happen.
    """
    if probes <= 0:
        raise PreconditionError("need a positive probe count")
    seed = default_seed() if seed is None else int(seed)
    rng = generator(seed, _CONE_STREAM + 1)
    V = np.array([[float(x) for x in v] for v in section.vertices])
    centroid = V.mean(axis=0)
    worst = -np.inf
    wit = 0
    failures = []
    for _ in range(probes):
        w = rng.dirichlet(np.ones(len(V))) if len(V) > 1 else np.ones(1)
        point = w @ V
        point = 0.85 * point + 0.15 * centroid  # keep strictly interior
        D = np.diag([float(x) for x in
                     section.torus.diagonal_entries([float(c) for c in point])])
        res = search_rn_metric(D, b, budget=4000,
                               seed=int(rng.integers(2 ** 32)))
        if isinstance(res, RnWitness):
            wit += 1
            worst = max(worst, res.lambda_max)
        else:
            failures.append((tuple(point), res.lambda_best))
    return AuditReport(probes, wit, float(worst), tuple(failures))
