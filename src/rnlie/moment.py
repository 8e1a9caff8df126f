"""Moment values of brackets and the combinatorics of their weight hulls.

The central object is the trace-normalized symmetric matrix m(mu)
pairing the infinitesimal basis-change action against the bracket
itself.  Its diagonal part is an exact convex combination of the
weight matrices F_ij^k, which is what ties curvature questions to the
small polytopes computed here.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from ._hull import Hull, exact_hull
from ._trf import trf_stack
from .brackets import Bracket, BasisChange, act, act_tensor, gram_difference
from .derivations import diagonal_derivation, diagonal_torus, weight_vector
from .errors import NumericalError, PreconditionError
from .rng import default_seed, generator

DIAG_POSITIVE = "DiagPositive"
TORUS_CENTRALIZER = "TorusCentralizer"
DERIVATION_CENTRALIZER = "DerivationCentralizer"
GROUP_TAGS = (DIAG_POSITIVE, TORUS_CENTRALIZER, DERIVATION_CENTRALIZER)

MAX_HULL_DIM = 8


@dataclass(frozen=True, eq=False)
class MomentValue:
    """Symmetric matrix with trace -1; `exact` carries Fraction rows when
    the input bracket was rational."""

    matrix: np.ndarray
    exact: tuple = None

    def __post_init__(self):
        m = self.matrix
        if np.abs(m - m.T).max() > 1e-10:
            raise NumericalError("moment value lost symmetry")
        if abs(np.trace(m) + 1.0) > 1e-10:
            raise NumericalError(f"moment value trace {np.trace(m):.3e} is not -1")

    @property
    def diagonal(self) -> np.ndarray:
        return np.diag(self.matrix).copy()

    def offdiagonal_max(self) -> float:
        off = self.matrix - np.diag(np.diag(self.matrix))
        return float(np.abs(off).max()) if off.size else 0.0


def _moment_exact(b: Bracket):
    full = {}
    for (i, j, k), c in b.constants.items():
        full[(i, j, k)] = Fraction(c)
        full[(j, i, k)] = -Fraction(c)
    norm = sum(c * c for c in full.values())
    n = b.dim
    tgt = [[Fraction(0)] * n for _ in range(n)]
    src = [[Fraction(0)] * n for _ in range(n)]
    by_pair, by_tail = {}, {}
    for (i, j, k), c in full.items():
        by_pair.setdefault((i, j), []).append((k, c))
        by_tail.setdefault((j, k), []).append((i, c))
    for lst in by_pair.values():
        for k1, c1 in lst:
            for k2, c2 in lst:
                tgt[k1][k2] += c1 * c2
    for lst in by_tail.values():
        for a1, c1 in lst:
            for a2, c2 in lst:
                src[a1][a2] += c1 * c2
    return tuple(tuple((tgt[r][s] - 2 * src[r][s]) / norm for s in range(n))
                 for r in range(n))


def moment_map(b: Bracket) -> MomentValue:
    """Moment value of a nonzero bracket.

    Defined by <m(mu), E> = <E . mu, mu> / |mu|^2 over symmetric E,
    where E acts as the infinitesimal basis change.  Contracting out
    the action gives m = (T - 2 S) / |mu|^2 with T the target-target
    and S the source-source gram matrix of the structure constants;
    equivalently m = 4 Ric / |mu|^2.
    """
    if b.is_zero():
        raise PreconditionError("moment value of the zero bracket is undefined")
    if b.is_rational:
        exact = _moment_exact(b)
        mat = np.array([[float(x) for x in row] for row in exact])
        return MomentValue(mat, exact)
    C = b.tensor()
    return MomentValue(gram_difference(C) / float(np.vdot(C, C)))


def weight_matrix(triple, dim) -> np.ndarray:
    return np.diag(np.array(weight_vector(triple, dim), dtype=float))


def weight_coordinates(b: Bracket):
    """Convex coefficients putting diag(m(mu)) at sum_a coeff_a F_a.

    The identity diag(m(mu)) = sum over triples of (2 c^2 / |mu|^2) F
    holds for every nonzero bracket; the returned dict maps each triple
    to its coefficient (Fractions when the bracket is rational).
    """
    if b.is_zero():
        raise PreconditionError("zero bracket has no weight coordinates")
    if b.is_rational:
        norm = 2 * sum(c * c for c in b.constants.values())
        return {t: 2 * c * c / norm for t, c in sorted(b.constants.items())}
    norm = 2.0 * sum(float(c) ** 2 for c in b.constants.values())
    return {t: 2.0 * float(c) ** 2 / norm for t, c in sorted(b.constants.items())}


@dataclass(frozen=True, eq=False)
class WeightPolytope:
    """Hull of the weight matrices of the nonzero structure constants.

    `triples` lists every weight triple, `vertices` the triples whose
    weight matrix is an extreme point, and `hull_faces` every nonempty
    face as a sorted tuple of triples (full face last).
    """

    ambient_dim: int
    triples: tuple
    vertices: tuple
    hull_faces: tuple
    hull: Hull

    @property
    def dim(self) -> int:
        return self.hull.dim

    def face_count(self) -> int:
        return len(self.hull_faces)


def weight_polytope(b: Bracket) -> WeightPolytope:
    if b.is_zero():
        raise PreconditionError("zero bracket has no weight polytope")
    if b.dim > MAX_HULL_DIM:
        raise PreconditionError(
            f"dimension {b.dim} exceeds the hull bound {MAX_HULL_DIM}")
    triples = tuple(sorted(b.constants))
    points = [weight_vector(t, b.dim) for t in triples]
    hull = exact_hull(points)
    extreme = set(hull.extreme)
    vertices = tuple(t for t, u in zip(triples, hull.to_unique) if u in extreme)
    faces = []
    for face in hull.faces:
        faces.append(tuple(t for t, u in zip(triples, hull.to_unique) if u in face))
    return WeightPolytope(b.dim, triples, vertices, tuple(faces), hull)


@dataclass(frozen=True)
class NiceBasisReport:
    ok: bool
    # pairs (i, j) whose bracket hits more than one basis direction
    multiple_targets: tuple
    # ((i1, j1), (i2, j2), k): distinct pairs sharing target k and an index
    overlapping_pairs: tuple


def nice_basis_check(b: Bracket) -> NiceBasisReport:
    """True iff each bracket hits one direction and pairs sharing a
    target are disjoint."""
    by_pair, by_target = {}, {}
    for (i, j, k) in sorted(b.constants):
        by_pair.setdefault((i, j), []).append(k)
        by_target.setdefault(k, []).append((i, j))
    multi = tuple((pair, tuple(ks)) for pair, ks in sorted(by_pair.items())
                  if len(ks) > 1)
    overlap = []
    for k, pairs in sorted(by_target.items()):
        for a in range(len(pairs)):
            for c in range(a + 1, len(pairs)):
                p, q = pairs[a], pairs[c]
                if set(p) & set(q):
                    overlap.append((p, q, k))
    return NiceBasisReport(not multi and not overlap, multi, tuple(overlap))


@dataclass(frozen=True, eq=False)
class OrbitSample:
    """Group elements paired with the moment values of the acted bracket.

    Every stored element has been driven onto the part of the orbit
    where the moment value is diagonal (up to 1e-10), so the diagonal
    projections are faithful points of the diagonal image.
    """

    group_tag: str
    points: tuple
    seed: int

    def verify(self, b: Bracket):
        """Raise PreconditionError unless every stored moment value
        recomputes within 1e-10 from its group element acting on b: a
        sample drawn for another bracket fails here."""
        for g, mv in self.points:
            again = moment_map(act(BasisChange(g), b))
            if np.abs(again.matrix - mv.matrix).max() > 1e-10:
                raise PreconditionError(
                    "stored moment value does not recompute; "
                    "the sample was drawn for another bracket")

    def diagonals(self) -> np.ndarray:
        return np.array([np.diag(mv.matrix) for _, mv in self.points])


def _group_blocks(tag, b, derivation=None):
    n = b.dim
    if tag == DIAG_POSITIVE:
        return [(i,) for i in range(n)]
    if tag == TORUS_CENTRALIZER:
        torus = diagonal_torus(b)
        return [tuple(indices) for _, indices in torus.weights]
    if tag == DERIVATION_CENTRALIZER:
        if derivation is None:
            raise PreconditionError(
                "DerivationCentralizer sampling needs the derivation")
        return centralizer_blocks(diagonal_derivation(derivation, b))
    raise PreconditionError(f"unknown group tag {tag!r}")


def centralizer_blocks(entries) -> list:
    """Index blocks of equal diagonal entries, each block in index order
    and the blocks in order of first index: the block structure of the
    centralizer of a diagonal matrix.  Entries within 1e-9 of a block's
    first entry, relative to the largest entry, join that block."""
    vals = [float(v) for v in entries]
    scale = max([1.0] + [abs(v) for v in vals])
    blocks, reps = [], []
    for i, v in enumerate(vals):
        for blk, r in zip(blocks, reps):
            if abs(v - r) <= 1e-9 * scale:
                blk.append(i)
                break
        else:
            reps.append(v)
            blocks.append([i])
    return [tuple(blk) for blk in blocks]


def pack_blocks(A, blocks) -> np.ndarray:
    """The entries of A inside the diagonal blocks, block by block, each
    block row-major; unpack_blocks inverts it."""
    if not blocks:
        return np.zeros(0)
    return np.concatenate([A[np.ix_(blk, blk)].ravel() for blk in blocks])


def unpack_blocks(x, blocks, n: int) -> np.ndarray:
    """The n x n matrix, zero off the blocks, whose blocks are read from
    the front of x in the layout of pack_blocks; a stack of them when x
    has leading axes."""
    x = np.asarray(x)
    flat = [r * n + c for blk in blocks for r in blk for c in blk]
    A = np.zeros(x.shape[:-1] + (n * n,))
    A[..., flat] = x[..., :len(flat)]
    return A.reshape(x.shape[:-1] + (n, n))


def _draw_block_element(rng, blocks, n):
    for _ in range(64):
        g = np.zeros((n, n))
        for blk in blocks:
            k = len(blk)
            sub = rng.standard_normal((k, k))
            for t in range(k):
                sub[t, t] = math.exp(rng.uniform(-6.0, 6.0))
            g[np.ix_(blk, blk)] = sub
        if np.linalg.cond(g) < 1e8:
            return g
    raise NumericalError("could not draw a well-conditioned group element")


# Taylor coefficients in z = d^2 of cosh(d) and sinh(d)/d, highest power
# first; for |z| < 1 the terms past these fall below the last bit
_BLOCK2_SERIES = tuple((1.0 / math.factorial(2 * j), 1.0 / math.factorial(2 * j + 1))
                       for j in range(12, -1, -1))


def _block2_exp(a, b, c, d):
    """exp([[a, b], [c, d]]) = e^tau (cosh(delta) I + sinh(delta)/delta A0),
    row-major, with tau half the trace, A0 = A - tau I = [[h, b], [c, -h]]
    and A0^2 = delta^2 I, where z = delta^2 = h^2 + bc has either sign
    (cos and sin of sqrt(-z) when z < 0).  Taylor series in z when |z| <
    1; NaN where it overflows.  Python floats: a 2 x 2 block is a handful
    of numbers, and numpy's per-call cost would outweigh the arithmetic."""
    half = 0.5 * (a - d)
    z = half * half + b * c
    try:
        if abs(z) < 1.0:
            ch = sh = 0.0
            for p, q in _BLOCK2_SERIES:
                ch, sh = ch * z + p, sh * z + q
        elif z > 0:
            r = math.sqrt(z)
            ch, sh = math.cosh(r), math.sinh(r) / r
        else:
            r = math.sqrt(-z)
            ch, sh = math.cos(r), math.sin(r) / r
        scale = math.exp(0.5 * (a + d))
    except (OverflowError, ValueError):
        return math.nan, math.nan, math.nan, math.nan
    ch, sh = scale * ch, scale * sh
    return ch + sh * half, sh * b, sh * c, ch - sh * half


@functools.lru_cache(maxsize=64)
def _block_layout(blocks):
    """Where pack_blocks puts each size of block: the indices and packed
    offsets of the 1 x 1 blocks; the row and column indices and packed
    offsets of the entries of the 2 x 2 blocks, one row of four per block;
    and each larger block with its first offset.  `blocks` is a tuple of
    index tuples."""
    ones, pairs, larger = [], [], []
    pos = 0
    for blk in blocks:
        if len(blk) == 1:
            ones.append((blk[0], pos))
        elif len(blk) == 2:
            i, j = blk
            pairs.append(((i, i, j, j), (i, j, i, j), range(pos, pos + 4)))
        else:
            larger.append((blk, pos))
        pos += len(blk) ** 2
    return (tuple(np.array(col) for col in zip(*ones)),
            tuple(np.array(col) for col in zip(*pairs)), tuple(larger))


def _metric_factors(A, blocks, n):
    """exp(A) for each row of A, packed as pack_blocks lays out the
    diagonal blocks: the metric factors h of the metric search, and the
    group elements orbit steering applies to its draw.  np.exp on the 1 x
    1 blocks, the closed form of _block2_exp on the 2 x 2 blocks, expm on
    larger blocks.  Each row gives the same bits in any stack."""
    A = np.asarray(A, dtype=float)
    h = np.zeros((len(A), n, n))
    ones, pairs, larger = _block_layout(tuple(blocks))
    if ones:
        i, pos = ones
        with np.errstate(all="ignore"):
            h[:, i, i] = np.exp(A[:, pos])
    if pairs:
        rows, cols, pos = pairs
        quads = A[:, pos]
        h[:, rows, cols] = np.reshape([_block2_exp(*q) for q in quads.reshape(-1, 4).tolist()],
                                      quads.shape)
    for blk, pos in larger:
        from scipy.linalg import expm
        k = len(blk)
        rows, cols = np.ix_(blk, blk)
        with np.errstate(all="ignore"):
            h[:, rows, cols] = expm(A[:, pos:pos + k * k].reshape(-1, k, k))
    return h


def _exp_directions(x, blocks, n):
    """The left-trivialised derivatives L_k = dexp_A(E_k) exp(-A) of exp
    at A = unpack_blocks(x), one (n, n) slice per packed coordinate k:
    moving x_k by t moves exp(A) to (1 + t L_k) exp(A) to first order.
    For a stack of rows x, a stack of them.  Steering's blocks are 1 x 1,
    where A is diagonal, commutes with every E_k and gives L_k = E_k."""
    index = [i for (i,) in blocks]
    L = np.zeros(np.shape(x) + (n, n))
    L[..., np.arange(len(index)), index, index] = 1.0
    return L


def _steered(g0, blocks, x):
    """exp(A(x)) g0, the element steering reaches at packed x."""
    return _metric_factors(x[None], blocks, len(g0))[0] @ g0


@functools.lru_cache(maxsize=16)
def _upper(n):
    """np.triu_indices(n, 1): the upper off-diagonal entries steering
    drives to zero."""
    return np.triu_indices(n, 1)


def _acted_states(C, G):
    """(nu, |nu|^2, m) for nu = g . C at each element g of the stack G:
    the acted tensor, its squared norm and its moment matrix, which the
    steering residual and Jacobian at one point share.  Each row gets the
    bits of a stack of one; act_tensor raises LinAlgError if any g is
    singular."""
    nu = act_tensor(C, G)
    flat = nu.reshape(len(nu), -1)
    norms = np.vecdot(flat, flat)
    return nu, norms, gram_difference(nu) / norms[:, None, None]


def _acted_moment_matrix(C, g):
    """Moment matrix of the transformed structure tensor, all dense."""
    return _acted_states(C, np.asarray(g)[None])[2][0]


def _steering_residuals(C, G0, blocks, X):
    """The residual of orbit steering at each row x of X, the upper
    off-diagonal entries of the moment matrix of exp(A(x)) g0 . C with g0
    the matching row of G0, and the _acted_states there, which the
    Jacobian at the same points takes.  A singular element gives a NaN
    row.  Each row gets the bits of a stack of one."""
    n = C.shape[-1]
    G = _metric_factors(X, blocks, n) @ G0
    try:
        states = _acted_states(C, G)
    except np.linalg.LinAlgError:
        # one row at a time, so that only the singular rows are lost
        states = (np.full((len(G), n, n, n), np.nan), np.full(len(G), np.nan),
                  np.full((len(G), n, n), np.nan))
        for k in range(len(G)):
            try:
                row = _acted_states(C, G[k:k + 1])
            except np.linalg.LinAlgError:
                continue
            for whole, part in zip(states, row):
                whole[k] = part[0]
    iu, ju = _upper(n)
    return states[2][:, iu, ju], states


def _steering_jacobians(C, blocks, X, states):
    """Jacobian in x of the steering residual at each row x of X, one
    column per packed coordinate; `states` is the _acted_states of
    _steering_residuals at those points.  Each row gets the bits of a
    stack of one.

    Along L_k (_exp_directions) the action moves nu by dnu[i,j,c] =
    sum_r L[c,r] nu[i,j,r] - sum_p L[p,i] nu[p,j,c] - sum_q L[q,j] nu[i,q,c],
    and the moment m = B(nu, nu) / |nu|^2, with B the bilinear form of
    gram_difference, by (B(dnu, nu) + B(dnu, nu)^T - 2 <nu, dnu> m) / |nu|^2.
    """
    nu, norms, m = states
    n = C.shape[-1]
    L = _exp_directions(X, blocks, n)
    Lt = L.swapaxes(-1, -2)
    shape = L.shape[:2] + (n, n, n)   # (row, coordinate, i, j, c)
    dnu = (nu.reshape(len(X), 1, n * n, n) @ Lt).reshape(shape)
    dnu -= (Lt @ nu.reshape(len(X), 1, n, n * n)).reshape(shape)
    dnu -= ((nu.swapaxes(-1, -2).reshape(len(X), 1, n * n, n) @ L)
            .reshape(shape).swapaxes(-1, -2))
    B = gram_difference(dnu, nu[:, None])
    inner = dnu.reshape(shape[:2] + (-1,)) @ nu.reshape(len(X), -1, 1)
    dm = (B + B.swapaxes(-1, -2) - 2.0 * inner[..., None] * m[:, None]) \
        / norms[:, None, None, None]
    iu, ju = _upper(n)
    return dm[..., iu, ju].swapaxes(-1, -2)


def _lands(f):
    return np.abs(f).max() <= 1e-11


def _steer(C, blocks, G0, X0, check_start=False):
    """Steer each DiagPositive draw G0[k] from X0[k] towards the diagonal
    moment slice, all draws in lockstep, and return the steered element
    of each draw in order: exp(diag(x)) G0[k] where the solve lands
    (off-diagonal entries within 1e-11), None where it does not.  The list
    ends at the first None, and the solves of the draws after it are cut
    short as soon as that failure is known.  With `check_start` (X0 = 0),
    a draw that already lands at the start is its own steered element,
    and the residual that says so is also its solve's first.

    The solves are one _trf.trf_stack: scipy's trust-region method on
    the analytic Jacobian of _steering_jacobians, the derivative of exp
    pushed through the derivative of the action and of the moment map.
    A round answers the residual requests of every live draw with one
    stacked _steering_residuals call, and the Jacobian requests that
    follow at the same points with one stacked _steering_jacobians call
    on the rows of its states.  A trial point whose element is singular
    is a rejected step.
    """
    latest = []   # the points and states of the latest residual call

    def residuals(rows, X):
        resid, states = _steering_residuals(
            C, G0 if len(rows) == len(G0) else G0[rows], blocks, X)
        latest[:] = X, states
        return resid

    def jacobians(positions):
        X, states = latest
        if len(positions) < len(X):
            X, states = X[positions], tuple(part[positions] for part in states)
        return _steering_jacobians(C, blocks, X, states)

    results = trf_stack(residuals, jacobians, X0, ftol=3e-16, xtol=3e-16, max_nfev=300,
                        lands=_lands, check_start=check_start)
    return [None if not _lands(res.fun) else G0[k] if res.njev == 0
            else _steered(G0[k], blocks, res.x) for k, res in enumerate(results)]


def _nearest_identity(V):
    """The columns of the orthogonal V, permuted and signed so that each
    sits at the basis vector it leans on most, with a positive entry
    there: largest |entry| first, each row and column taken once."""
    W, free = np.empty_like(V), np.ones(V.shape, bool)
    for flat in np.argsort(-np.abs(V), axis=None, kind="stable").tolist():
        r, c = divmod(flat, len(V))
        if free[r, c]:
            W[:, r] = V[:, c] if V[r, c] > 0 else -V[:, c]
            free[r], free[:, c] = False, False
    return W


def _rotated_onto_slice(C, g0, blocks):
    """K g0 for the block-diagonal orthogonal K that diagonalises the
    moment matrix m of g0 . C, as m(K . nu) = K m(nu) K^T.  For g0 in a
    centralizer group m is block diagonal, exactly: every product off the
    blocks has an exactly zero factor.  K's blocks are eigenvectors of
    m's, in the order nearest the identity, not eigh's ascending one."""
    m = _acted_moment_matrix(C, g0)
    K = np.eye(len(g0))
    for blk in blocks:
        if len(blk) > 1:
            block = np.ix_(blk, blk)
            K[block] = _nearest_identity(np.linalg.eigh(m[block])[1]).T
    return K @ g0


_SPENT = ("steering onto the diagonal moment slice kept failing; "
          "the orbit may have no diagonal moment values")


def _rotated_points(rng, b, blocks, count):
    """`count` (g, moment value) pairs of a centralizer group: each draw
    rotated onto the slice, and kept if its moment value is within 1e-11
    of diagonal."""
    C, points = b.tensor(), []
    for _ in range(80 * count):
        g = _rotated_onto_slice(C, _draw_block_element(rng, blocks, b.dim), blocks)
        mv = moment_map(act(BasisChange(g), b))
        if mv.offdiagonal_max() <= 1e-11:
            points.append((g, mv))
        if len(points) == count:
            return points
    raise NumericalError(_SPENT)


def _steered_points(rng, b, blocks, count):
    """orbit_sample's points for DiagPositive, steered in lockstep windows."""
    C, n = b.tensor(), b.dim
    points = []
    budget = 80 * count
    while len(points) < count:
        draws, error = [], None   # (g0, rng state, budget) after each draw
        while len(draws) < count - len(points):
            budget -= 1
            try:
                if budget < 0:
                    raise NumericalError(_SPENT)
                g0 = _draw_block_element(rng, blocks, n)
            except NumericalError as err:
                error = err
                break
            draws.append((g0, rng.bit_generator.state, budget))
        with np.errstate(invalid="ignore", divide="ignore"):
            steered = _steer(C, blocks, np.array([g0 for g0, _, _ in draws]).reshape(-1, n, n),
                             np.zeros((len(draws), n)), check_start=True)
        for g, (g0, state, left) in zip(steered, draws):
            if g is None:
                rng.bit_generator.state, budget = state, left
                for _ in range(2):
                    with np.errstate(invalid="ignore", divide="ignore"):
                        (g,) = _steer(C, blocks, g0[None], (0.3 * rng.standard_normal(n))[None])
                    if g is not None:
                        break
            if g is not None:
                points.append((g, moment_map(act(BasisChange(g), b))))
        if error is not None and (not steered or steered[-1] is not None):
            raise error
    return points


_TAG_STREAM = {DIAG_POSITIVE: 11, TORUS_CENTRALIZER: 12, DERIVATION_CENTRALIZER: 13}


def orbit_sample(tag, b: Bracket, count: int = 32, seed=None,
                 derivation=None) -> OrbitSample:
    """Sample `count` group elements and the moment values they induce.

    Diagonal entries are log-uniform in [e^-6, e^6], off-diagonal block
    entries standard normal, near-singular draws rejected.  Each draw g0
    is then moved inside the group onto the locus where the acted moment
    value is diagonal, so the emitted diagonal projections are genuine
    points of the diagonal image of the orbit.  Every draw spends one of
    80 * count; NumericalError is raised once they are spent.

    On TorusCentralizer and DerivationCentralizer one rotation inside
    the group's blocks diagonalises the moment value in closed form
    (_rotated_onto_slice).  Every rotated draw lands; one whose emitted
    moment value were off-diagonal by more than 1e-11 would be redrawn.

    DiagPositive draws, whose moment value on a basis that is not nice is
    not diagonal, are steered by a least-squares solve over g(x) =
    exp(diag(x)) g0, from x = 0 and then from up to two random x; a draw
    that cannot be steered there is discarded and redrawn.  They are
    steered in speculative windows, with the same bytes as steering one
    draw at a time.  A window draws the `count - kept` elements still
    missing, saving the rng state and the remaining budget after each
    draw, and steers all of them from x = 0 in lockstep, as the rows of
    one stacked solver (_steer), which takes no randomness and gives each
    row the bits of a solve of its own.  The walk keeps the window's
    draws in draw order up to the first whose solve does not land.  That
    draw rewinds the rng and the budget to its checkpoint and takes its
    random restarts there; the draws after it are dropped, and the next
    window draws them again from the same rng state.  An error met while
    drawing (budget spent, no well-conditioned element) is raised only
    when the walk reaches it.
    """
    if tag not in GROUP_TAGS:
        raise PreconditionError(f"unknown group tag {tag!r}; "
                                f"expected one of {GROUP_TAGS}")
    if count < 1:
        raise PreconditionError("count must be positive")
    blocks = _group_blocks(tag, b, derivation)
    seed = default_seed() if seed is None else int(seed)
    rng = generator(seed, _TAG_STREAM[tag])
    draw = _steered_points if tag == DIAG_POSITIVE else _rotated_points
    return OrbitSample(tag, tuple(draw(rng, b, blocks, count)), seed)


@dataclass(frozen=True, eq=False)
class ClosureFace:
    triples: tuple
    bracket: Bracket


def closure_faces(b: Bracket, require_nice: bool = True):
    """Degenerate brackets lambda_J, one per face of the weight hull.

    Each face contributes the restriction of the constants to the
    triples lying on it; the count equals the face count.  With a nice
    basis these restrictions are exactly the brackets reachable in the
    closure of the diagonal orbit; without one that reading is not
    guaranteed, so non-nice input is rejected unless `require_nice` is
    switched off.
    """
    report = nice_basis_check(b)
    if require_nice and not report.ok:
        raise PreconditionError(
            "closure faces are only certified for nice bases; "
            f"violations: {report.multiple_targets + report.overlapping_pairs}; "
            "pass require_nice=False for the bare combinatorial restriction")
    poly = weight_polytope(b)
    return tuple(ClosureFace(face, b.restricted(face))
                 for face in poly.hull_faces)
