"""The open convex cone of certifiably Ricci-negative diagonal derivations.

Membership goes through the certificate routes.  A cross-section at a
trace level is exact when the basis is nice with a multiplicity-free
torus: Fourier-Motzkin elimination of the multipliers gives the facet
rows, and double description (`_hull.hrep_vertices`) their vertices.
Otherwise it is a seeded inner approximation by support probes: float
LPs over a sampled orbit, which a dense two-phase simplex with Bland's
rule solves here (one phase 1 per section, then phase 2 for every probe
direction in lockstep, as one stack of tableaus).  Its vertices are the
probe points extreme in the trace plane, which `_hull.extreme_points`
decides exactly, for any number of points.

The rows of the margin system become primitive integer rows a . x <= 0
in one place, `_hull._integer_row`.  The elimination stays in integers,
and each facet row it keeps becomes Fractions with |lead| = 1 once, for
`ConeSection.halfspaces`.

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

from ._hull import _integer_row, _primitive, extreme_points, hrep_vertices
from .brackets import Bracket
from .certify import (Infeasible, RnWitness, SrnCertificate, _nice_margin,
                      certify_srn_sampled, search_rn_metric)
from .derivations import (Torus, _positive_trace, diagonal_derivation,
                          diagonal_torus, weyl_coordinate_actions)
from .errors import NumericalError, PreconditionError
from .moment import (TORUS_CENTRALIZER, nice_basis_check, orbit_sample,
                     weight_vector)
from .rng import generator

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


def cone_membership(D, b: Bracket, seed: int = 0) -> str:
    """Verdict for a diagonal derivation against the open cone.

    "In" needs a positive trace and a certificate (exact LP on a nice
    multiplicity-free basis, sampled LP over a torus-centralizer orbit
    otherwise).  "Out" is only asserted when it is definitive: trace
    not positive, or exact infeasibility in the exact regime.  D must
    pass diagonal_derivation.
    """
    torus = diagonal_torus(b)
    diag = diagonal_derivation(D, b)
    if not _positive_trace(diag):
        return OUT  # the cone sits inside the open half space tr > 0
    if _exact_regime(b, torus):
        res = _nice_margin(diag, b)
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
            if abs(total - self.trace_level) > 1e-8:
                raise NumericalError("section vertex off the trace level")


def _fm_eliminate(rows, d):
    """Fourier-Motzkin elimination of every column past the first d from
    integer rows a read as a . x <= 0.  Each sum of a positive and a
    negative row that cancels the column is made primitive; what comes
    back is the distinct primitive rows over the first d columns, in the
    order found, less those that vanish there."""
    work = rows
    for col in range(d, len(rows[0])):
        pos, neg, out = [], [], []
        for a in work:
            (pos if a[col] > 0 else neg if a[col] < 0 else out).append(a)
        for ap in pos:
            for an in neg:
                s, t = ap[col], -an[col]
                out.append(_primitive([t * x + s * y for x, y in zip(ap, an)]))
        work = out
    return list(dict.fromkeys(_primitive(a[:d]) for a in work if any(a[:d])))


def _exact_section(b: Bracket, torus: Torus, t) -> ConeSection:
    d = torus.dim
    weights = [weight_vector(tr, b.dim) for tr in sorted(b.constants)]
    m = len(weights)
    # variables (c_1..c_d, b_1..b_m): the closure rows of the margin
    # system, sum_t b_t w_t <= B^T c entrywise, and b >= 0, as primitive
    # integer rows a . x <= 0
    rows = [_integer_row([-row[r] for row in torus.basis] + [w[r] for w in weights])
            for r in range(b.dim)]
    for i in range(m):
        a = [0] * (d + m)
        a[d + i] = -1
        rows.append(a)
    halfspaces = []
    for a in _fm_eliminate(rows, d):
        lead = abs(next(x for x in a if x))
        halfspaces.append((tuple(Fraction(x, lead) for x in a), Fraction(0)))
    level = Fraction(t)
    verts = hrep_vertices([a for a, _ in halfspaces], [0] * len(halfspaces),
                          a_eq=[torus.trace_functional()], b_eq=[level])
    if not verts:
        raise NumericalError("empty section; is the trace level positive?")
    return ConeSection(torus, level, tuple(verts), EXACT, tuple(halfspaces))


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
    """Inner approximation of the section at trace level t.  Each probe
    direction u (2^d sign vectors, the 2d signed axes, then `resolution`
    seeded ones) gives the c of an optimal (c, a) for: maximise
    u . c - 1e-9 sum(a) subject to B^T c - P^T a >= _PROBE_MARGIN,
    sum(a) <= 1e4, tr c = t and a >= 0, with P the diagonals of a
    48-point TorusCentralizer orbit sample.  Points within 1e-7 of an
    earlier one are dropped, and those extreme in the trace plane, for
    any point count, are the vertices (_extreme_subset).

    The region does not depend on u, so _probe_points runs phase 1 once
    and phase 2 for all directions together, one stack of tableaus.
    Where a probe's optimum is a whole face, any optimal vertex of the
    (c, a) program may come back: two LP solvers can give different
    points for one section, each a valid optimum with the same support
    value u . c.
    """
    seed = int(seed)
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
    found = _probe_points(a_ub, b_ub, a_eq, b_eq,
                          _probe_directions(d, resolution, rng))
    if not found:
        raise NumericalError("no certified probe point at this trace level")
    keep = []
    for row in found:
        if not any(np.abs(row - k).max() <= 1e-7 for k in keep):
            keep.append(row)
    verts = _extreme_subset(np.array(keep), trace_row)
    return ConeSection(torus, float(t), verts, SAMPLED_INNER, None)


# The probes' float simplex works on rows scaled to unit max |coefficient|.
# A column enters on a reduced cost below -_COST_TOL, well under the mass
# cost, and is pivoted on only where its entry exceeds _PIVOT_TOL.
_COST_TOL = 1e-12
_PIVOT_TOL = 1e-9
_FEAS_TOL = 1e-12   # basic values below -_FEAS_TOL are repaired
_MASS_COST = 1e-9
_MAX_PIVOTS = 1000
_PHASE2_RUNS = 3    # per direction: the first run, then two after a rebuild


def _probe_points(a_ub, b_ub, a_eq, b_eq, directions) -> list:
    """The c part of an optimal vertex of: maximise u . c - 1e-9 sum(a)
    over A_ub (c, a) <= b_ub, A_eq (c, a) = b_eq, c free, a >= 0, for
    each direction u (c has len(u) entries).

    Dense two-phase simplex with Bland's rule.  Phase 1 runs once
    (_feasible_basis).  Phase 2 runs for every u in lockstep: the
    feasible tableau is copied and priced once per u, the stack pivots
    until each tableau is optimal or unbounded, and every final tableau
    is rebuilt from its basis in one solve.  Each u's vertex,
    coefficients clipped at zero, is kept if it meets the unscaled rows
    within 1e-9 and the equalities within 1e-9 max(1, |b_eq|).  Pivots
    on small entries let a tableau drift from the basis it stands for,
    so a final basis can be slightly infeasible or look unbounded; then,
    for that u alone, dual simplex steps on the rebuilt tableau restore
    feasibility and phase 2 runs again, _PHASE2_RUNS runs in all.  A u
    that stays unbounded, never passes or ends on a singular basis gives
    no point.  An empty region and a phase that reaches _MAX_PIVOTS
    pivots raise NumericalError.
    """
    d = len(directions[0])
    m = a_ub.shape[1] - d
    rows, rhs, basis = _feasible_basis(*_standard_rows(a_ub, b_ub, a_eq, b_eq, d))
    start = _tableau(rows, rhs, basis)
    if start is None:
        raise NumericalError("phase 1 ended on a singular basis")
    eq_tol = 1e-9 * np.maximum(1.0, np.abs(b_eq))
    ncols = rows.shape[1]
    costs = np.zeros((len(directions), ncols))
    costs[:, :d], costs[:, d:2 * d], costs[:, 2 * d:2 * d + m] = (
        directions, -directions, -_MASS_COST)
    finals = np.repeat(basis[None], len(directions), axis=0)
    tabs = _priced(np.repeat(start[None], len(directions), axis=0), finals, costs)
    bounded = _bland(tabs, finals, ncols)
    rebuilt = _tableau(rows, rhs, finals)
    if rebuilt is None:  # a singular basis costs only its own direction
        rebuilt = [_tableau(rows, rhs, final) for final in finals]
    else:
        rebuilt = np.moveaxis(rebuilt, -1, 0)
    points = []
    for cost, final, tab, ok in zip(costs, finals, rebuilt, bounded):
        for run in range(_PHASE2_RUNS):
            if run:
                ok = _bland(tab[None], final[None], ncols)[0]
                tab = _tableau(rows, rhs, final)
            if tab is None:
                break
            x = np.zeros(ncols)
            x[final] = tab[:-1, -1]
            c, a = x[:d] - x[d:2 * d], np.maximum(x[2 * d:2 * d + m], 0.0)
            ca = np.concatenate([c, a])
            if (ok and (a_ub @ ca - b_ub <= 1e-9).all()
                    and (np.abs(a_eq @ ca - b_eq) <= eq_tol).all()):
                points.append(c)
                break
            if not _dual(_priced(tab, final, cost), final, ncols):
                break
    return points


def _standard_rows(a_ub, b_ub, a_eq, b_eq, d):
    """The rows over (c+, c-, a, slacks), c = c+ - c-, one slack per
    inequality, each flipped to a nonnegative right-hand side and scaled
    to unit max |coefficient|; and each row's slack column where that
    kept a positive sign, else -1."""
    k, m = len(b_ub), a_ub.shape[1] - d
    joint = np.vstack([a_ub, a_eq])
    rows = np.zeros((len(joint), 2 * d + m + k))
    rows[:, :d], rows[:, d:2 * d], rows[:, 2 * d:2 * d + m] = (
        joint[:, :d], -joint[:, :d], joint[:, d:])
    rows[:k, 2 * d + m:] = np.eye(k)
    rhs = np.concatenate([b_ub, b_eq]).astype(float)
    sign = np.where(rhs < 0, -1.0, 1.0)
    slack = np.full(len(rows), -1)
    slack[:k] = np.where(sign[:k] > 0, 2 * d + m + np.arange(k), -1)
    scale = sign / np.abs(rows).max(axis=1)
    return rows * scale[:, None], rhs * scale, slack


def _feasible_basis(rows, rhs, slack):
    """Phase 1: a feasible basis of rows x = rhs, x >= 0, and the rows
    and right-hand sides it spans.  A row starts on its slack where it
    has one (slack[r] >= 0), else on an artificial.  A row whose
    artificial cannot leave at zero is redundant and dropped.
    NumericalError if the artificials keep a sum over 1e-9."""
    nrows, ncols = rows.shape
    art = np.flatnonzero(slack < 0)
    tab = np.zeros((nrows + 1, ncols + len(art) + 1))
    tab[:-1, :ncols], tab[:-1, -1] = rows, rhs
    tab[art, ncols + np.arange(len(art))] = 1.0
    basis = slack.copy()
    basis[art] = ncols + np.arange(len(art))
    for r in np.flatnonzero(slack >= 0):
        tab[r] /= tab[r, slack[r]]
    tab[-1] = -tab[art].sum(axis=0)  # maximise -sum(artificials)
    tab[-1, ncols:-1] = 0.0
    _bland(tab[None], basis[None], ncols)
    if tab[-1, -1] < -1e-9:
        raise NumericalError("no certified probe point at this trace level")
    keep = []
    for r in range(nrows):
        if basis[r] >= ncols:  # an artificial still basic, at zero
            j = int(np.argmax(np.abs(tab[r, :ncols])))
            if abs(tab[r, j]) <= _PIVOT_TOL:
                continue
            _pivot(tab[None], basis[None], [r], [j])
        keep.append(r)
    return rows[keep], rhs[keep], basis[keep]


def _tableau(rows, rhs, basis):
    """The tableau of `basis` solved afresh from the rows, with an
    objective row left zero; None if the basis is singular.

    A (K, R) stack of bases is solved in one np.linalg.solve, which runs
    LAPACK on each slice alone, so each tableau has the bits of its own
    solve.  The K tableaus come back along a last axis, where tab[:-1, -1]
    still reads the basic values; None if any basis of the stack is
    singular."""
    stack = np.atleast_2d(basis)
    tab = np.zeros((len(stack), len(rows) + 1, rows.shape[1] + 1))
    try:
        tab[:, :-1] = np.linalg.solve(np.swapaxes(rows.T[stack], 1, 2),
                                      np.column_stack([rows, rhs]))
    except np.linalg.LinAlgError:
        return None
    np.put_along_axis(tab[:, :-1], stack[:, None], np.eye(len(rows)), axis=2)
    return tab[0] if np.ndim(basis) == 1 else np.moveaxis(tab, 0, -1)


def _priced(tab, basis, cost):
    """Fill the objective row: reduced costs, zero on the basis, and the
    objective value last.  On a stack, tableau k takes basis k and cost
    k, all in one product."""
    tab[..., -1, :] = (np.take_along_axis(cost, basis, -1)[..., None, :]
                       @ tab[..., :-1, :])[..., 0, :]
    tab[..., -1, :-1] -= cost
    np.put_along_axis(tab[..., -1, :], basis, 0.0, -1)
    return tab


def _bland(tab, basis, ncols) -> np.ndarray:
    """Primal simplex on a stack of float tableaus (K, R+1, C) with bases
    (K, R), each tableau's last row holding the reduced costs and the
    objective value, maximising, from feasible bases.  Bland's rule in
    each tableau: the first of the first `ncols` columns with a reduced
    cost below -_COST_TOL enters, and the least ratio over entries above
    _PIVOT_TOL leaves, exact ties on the lower basis index.  A tableau
    leaves the stack once it is optimal or its entering column is
    unbounded; the others pivot together.  Returns each tableau's
    bounded flag: False if its entering column is unbounded."""
    bounded = np.ones(len(tab), dtype=bool)
    live, work, wbasis = np.arange(len(tab)), tab, basis
    k = live
    for _ in range(_MAX_PIVOTS):
        enters = work[:, -1, :ncols] < -_COST_TOL
        j = enters.argmax(axis=1)
        col = work[k, :-1, j]
        cand = col > _PIVOT_TOL
        entering = enters[k, j]
        moves = entering & cand.any(axis=1)
        if not moves.all():
            bounded[live[entering & ~moves]] = False
            done = ~moves
            tab[live[done]], basis[live[done]] = work[done], wbasis[done]
            live, work, wbasis = live[moves], work[moves], wbasis[moves]
            if not live.size:
                return bounded
            k, j, col, cand = np.arange(len(live)), j[moves], col[moves], cand[moves]
        ratios = np.divide(np.maximum(work[:, :-1, -1], 0.0), col,
                           out=np.full(col.shape, np.inf), where=cand)
        ties = cand & (ratios == ratios.min(axis=1, keepdims=True))
        _pivot(work, wbasis, np.where(ties, wbasis, tab.shape[-1]).argmin(axis=1), j)
    raise NumericalError(f"simplex reached {_MAX_PIVOTS} pivots")


def _dual(tab, basis, ncols) -> bool:
    """Dual simplex steps until no basic value is below -_FEAS_TOL: the
    row of the lowest such basic index leaves, and the column of least
    ratio reduced cost / -entry enters, ties on the lower index.  False
    if a row cannot be repaired."""
    for _ in range(_MAX_PIVOTS):
        low = (tab[:-1, -1] < -_FEAS_TOL).nonzero()[0]
        if not low.size:
            return True
        r = low[basis[low].argmin()]
        cand = (tab[r, :ncols] < -_PIVOT_TOL).nonzero()[0]
        if not cand.size:
            return False
        ratios = np.maximum(tab[-1, cand], 0.0) / -tab[r, cand]
        _pivot(tab[None], basis[None], [r], [cand[np.argmin(ratios)]])
    raise NumericalError(f"simplex reached {_MAX_PIVOTS} pivots")


def _pivot(tab, basis, r, j):
    """Pivot tableau k of a stack on row r[k] and column j[k]: the row is
    divided by its pivot entry, then tab -= col * row."""
    k = np.arange(len(tab))
    row = tab[k, r] / tab[k, r, j][:, None]
    tab[k, r] = row
    col = tab[k, :, j]
    col[k, r] = 0.0
    tab -= col[:, :, None] * row[:, None, :]
    basis[k, r] = j


def _extreme_subset(points: np.ndarray, trace_row: np.ndarray) -> tuple:
    """The points that are vertices of their hull in the trace plane, in
    input order.  Dropping the first coordinate the trace row reads maps
    the plane onto R^(d-1) affinely, which keeps the vertices and drops
    the rounding that lifts the points off the plane; there
    `extreme_points` decides them exactly, on the floats as Fractions."""
    k = int(np.flatnonzero(trace_row)[0])
    kept = extreme_points(np.delete(points, k, axis=1))
    return tuple(tuple(float(x) for x in points[i]) for i in kept)


def cone_section(b: Bracket, t, resolution: int = 64, seed: int = 0) -> ConeSection:
    """Cross-section of the cone at trace level t, as a polytope in
    torus coordinates.

    Exact when the basis is nice with a multiplicity-free torus of
    dimension at most MAX_EXACT_TORUS_DIM (Fourier-Motzkin elimination of
    the multipliers, then the vertices by exact double description).
    Any torus of larger dimension raises PreconditionError.  Otherwise a
    seeded inner approximation from support probes over a sampled orbit.
    """
    if t <= 0:
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
    """Check that each coordinate action of the signed permutation
    automorphisms carries the vertex set to itself: the Hausdorff
    distance between the vertices and their image, measured in floats,
    must stay within 1e-6.  An exact section is measured on its level-1
    vertices, each Fraction divided by the level before it becomes a
    float: the section is positively homogeneous in its level, so levels
    past float range are checked too.  A sampled section is measured as
    it is."""
    actions = weyl_coordinate_actions(section.torus.bracket)
    level = section.trace_level if section.exactness == EXACT else 1
    V = np.array([[float(x / level) for x in v] for v in section.vertices])
    worst = 0.0
    failures = []
    for a_i, act in enumerate(actions):
        img = V @ np.array([[float(x) for x in row] for row in act]).T
        d = np.linalg.norm(img[:, None, :] - V[None, :, :], axis=2)
        dist = float(max(d.min(axis=1).max(), d.min(axis=0).max()))
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
                      seed: int = 0) -> AuditReport:
    """Drive interior points of the section through the metric search.

    Every probe must produce a witness with a negative top Ricci
    eigenvalue within 4000 evaluations; any failure lands in the report
    and signals that the section over-approximates, which must not
    happen.
    """
    if probes <= 0:
        raise PreconditionError("need a positive probe count")
    seed = int(seed)
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
