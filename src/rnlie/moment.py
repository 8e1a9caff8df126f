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
from .brackets import Bracket, _memo, act_tensor, cut_tensor, gram_difference
from .derivations import diagonal_derivation, diagonal_torus, weight_vector
from .errors import NumericalError, PreconditionError
from .rng import generator

DIAG_POSITIVE = "DiagPositive"
TORUS_CENTRALIZER = "TorusCentralizer"
DERIVATION_CENTRALIZER = "DerivationCentralizer"
GROUP_TAGS = (DIAG_POSITIVE, TORUS_CENTRALIZER, DERIVATION_CENTRALIZER)


@dataclass(frozen=True, eq=False)
class MomentValue:
    """Symmetric matrix with trace -1; `exact` carries Fraction rows when
    the input bracket was rational."""

    matrix: np.ndarray
    exact: tuple = None

    def __post_init__(self):
        _check_moment_matrices(self.matrix[None])

    @property
    def diagonal(self) -> np.ndarray:
        return np.diag(self.matrix).copy()

    def offdiagonal_max(self) -> float:
        off = self.matrix - np.diag(np.diag(self.matrix))
        return float(np.abs(off).max()) if off.size else 0.0


def _check_moment_matrices(M):
    """MomentValue's checks on each matrix of the stack M, as one stack:
    NumericalError for the first that has lost symmetry or whose trace is
    not -1, both to 1e-10."""
    trace = np.trace(M, axis1=-2, axis2=-1)
    bad = ((np.abs(M - M.swapaxes(-1, -2)).max(axis=(-2, -1)) > 1e-10)
           | (np.abs(trace + 1.0) > 1e-10))
    if bad.any():
        m = M[bad.argmax()]
        if np.abs(m - m.T).max() > 1e-10:
            raise NumericalError("moment value lost symmetry")
        raise NumericalError(f"moment value trace {np.trace(m):.3e} is not -1")


def _checked_values(M):
    """A MomentValue for each matrix of the stack M, whose checks
    (_check_moment_matrices) the caller has run on the stack."""
    values = []
    for m in M:
        mv = object.__new__(MomentValue)
        object.__setattr__(mv, "matrix", m)
        object.__setattr__(mv, "exact", None)
        values.append(mv)
    return values


def _moment_exact(b: Bracket):
    """(T - 2S) / |mu|^2 in Fractions, read off the bracket's pair table:
    T sums c_ij^a c_ij^b over the ordered pairs (i, j), S sums
    c_aj^k c_bj^k over the tails (j, k)."""
    n = b.dim
    tgt = [[Fraction(0)] * n for _ in range(n)]
    src = [[Fraction(0)] * n for _ in range(n)]
    by_tail = {}
    for i, row in enumerate(b._pair_table()):
        for j, terms in row.items():
            for k1, c1 in terms:
                by_tail.setdefault((j, k1), []).append((i, c1))
                for k2, c2 in terms:
                    tgt[k1][k2] += c1 * c2
    for lst in by_tail.values():
        for a1, c1 in lst:
            for a2, c2 in lst:
                src[a1][a2] += c1 * c2
    norm = b.norm_sq()
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
    return MomentValue(_moment_matrices(b.tensor()))


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
    """The hull of the weight vectors of b's constants, its vertices and
    faces read back as index triples.  Its one size bound is exact_hull's:
    16 distinct points (`_hull.MAX_POINTS`), whatever b.dim."""
    if b.is_zero():
        raise PreconditionError("zero bracket has no weight polytope")
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
    target are disjoint.

    The report is computed once per Bracket instance and shared by every
    later call on it, so callers should reuse one bracket, as corpus()
    and the CLI do."""
    return _memo(b, "_nice_basis_check", _nice_basis_check)


def _nice_basis_check(b: Bracket) -> NiceBasisReport:
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
    where the moment value is diagonal (up to 1e-11), so the diagonal
    projections are faithful points of the diagonal image.
    """

    group_tag: str
    points: tuple
    seed: int

    def verify(self, b: Bracket):
        """Raise PreconditionError unless every stored moment value
        recomputes within 1e-10 from its group element acting on b: a
        sample drawn for another bracket fails here.  The elements are
        acted on and measured as one stack, as _sliced_points drew them."""
        if not self.points:
            return
        with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
            again = _moment_matrices(cut_tensor(act_tensor(
                b.tensor(), np.array([g for g, _ in self.points]))))
            gap = np.abs(again - np.array([mv.matrix for _, mv in self.points])).max()
        if not gap <= 1e-10:
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


def unpack_blocks(x, blocks, n: int) -> np.ndarray:
    """The n x n matrix, zero off the blocks, whose blocks are read from
    the front of x, block by block, each block row-major; a stack of them
    when x has leading axes."""
    x = np.asarray(x)
    flat = [r * n + c for blk in blocks for r in blk for c in blk]
    A = np.zeros(x.shape[:-1] + (n * n,))
    A[..., flat] = x[..., :len(flat)]
    return A.reshape(x.shape[:-1] + (n, n))


def _draw_block_elements(rng, blocks, n, k):
    """k elements of the block-diagonal group as a (k, n, n) stack, drawn
    one after another: for each block of size s, standard_normal(s * s)
    for its entries, then uniform(-6, 6, s) for the logs of its diagonal
    entries, which replace the normals there (a 1 x 1 block throws its
    normal away), one math.exp each, as np.exp differs in the last bit.
    An element whose condition number is 1e8 or more is redrawn in stream
    order, so the stack holds the first k well-conditioned elements of the
    stream; 64 such draws in a row raise NumericalError."""
    sizes = [len(blk) for blk in blocks]
    # each block's s * s entries, row-major, as unpack_blocks reads them
    diagonal, width = [], 0
    for s in sizes:
        diagonal += range(width, width + s * s, s + 1)
        width += s * s
    kept, streak = [], 0
    while len(kept) < k:
        need = k - len(kept)
        normals, logs = [], []
        for _ in range(need):
            for s in sizes:
                normals.append(rng.standard_normal(s * s))
                logs.append(rng.uniform(-6.0, 6.0, s))
        X = np.concatenate(normals).reshape(need, width)
        X[:, diagonal] = np.reshape([math.exp(u) for u in np.concatenate(logs).tolist()],
                                    (need, len(diagonal)))
        G = unpack_blocks(X, blocks, n)
        for g, fine in zip(G, np.linalg.cond(G) < 1e8):
            streak = 0 if fine else streak + 1
            if fine:
                kept.append(g)
            elif streak == 64:
                raise NumericalError("could not draw a well-conditioned group element")
    return np.array(kept)


@functools.lru_cache(maxsize=64)
def _metric_layout(blocks):
    """Where the metric search packs its factors: each block's lower
    triangle, block after block, row by row.  Returns the (row, column,
    offset) index arrays of the diagonal entries, those of the entries
    below the diagonal, and the packed width.  `blocks` is a tuple of
    index tuples; a k x k block takes k(k + 1)/2 coordinates.  The arrays
    are read-only, since every caller shares them."""
    diagonal, below, width = [], [], 0
    for blk in blocks:
        for r, i in enumerate(blk):
            below += [(i, j, width + c) for c, j in enumerate(blk[:r])]
            width += r
            diagonal.append((i, i, width))
            width += 1
    layout = []
    for entries in (diagonal, below):
        columns = np.array(entries, dtype=np.intp).reshape(-1, 3).T.copy()
        columns.setflags(write=False)
        layout.append(tuple(columns))
    return layout[0], layout[1], width


def _metric_factors(A, blocks, n):
    """The metric factors h of the metric search, one for each row of A
    in the layout of _metric_layout: block diagonal, each block lower
    triangular, with the entries below the diagonal as given and e^a on
    the diagonal.  These reach every metric that any invertible factor
    with the same blocks reaches: such a factor is Q L, with Q orthogonal
    and L of this form (the QL decomposition), and (X, Q L) gives the
    metric of (Q^T X, L), Q being an isometry.  Each row gives the same
    bits in any stack."""
    A = np.asarray(A, dtype=float)
    (i, _, pos), (rows, cols, at), _ = _metric_layout(tuple(blocks))
    h = np.zeros((len(A), n, n))
    h[:, rows, cols] = A[:, at]
    with np.errstate(all="ignore"):
        h[:, i, i] = np.exp(A[:, pos])
    return h


def _moment_matrices(C):
    """The moment matrix of each structure tensor of the stack C: its
    gram_difference over its squared norm, the bytes of moment_map on a
    float bracket."""
    flat = C.reshape(C.shape[:-3] + (C.shape[-1] ** 3,))
    return gram_difference(C) / np.vecdot(flat, flat)[..., None, None]


def _acted_moment_matrix(C, g):
    """Moment matrix of the transformed structure tensor, all dense; a
    stack of them when g is a stack."""
    return _moment_matrices(act_tensor(C, g))


@functools.lru_cache(maxsize=16)
def _slice_layout(n):
    """W with W[i, j, k] = e_k - e_i - e_j, so that diag(e^s) . C is C
    scaled entrywise by e^(W s) and its derivative in s_l is W[..., l]
    times it; and np.triu_indices(n, 1), the upper off-diagonal entries
    of the residual, kept since building them costs about as much as the
    residual."""
    eye = np.eye(n)
    return eye[None, None] - eye[:, None, None] - eye[None, :, None], np.triu_indices(n, 1)


def _slice_residual(C, s):
    """The residual r(s) that DiagPositive sampling drives to zero, the
    upper off-diagonal part of the moment matrix m of nu = diag(e^s) . C,
    and the state (nu, |nu|^2, m) that its Jacobian takes."""
    W, upper = _slice_layout(len(s))
    nu = C * np.exp(W @ s)
    flat = nu.ravel()
    norm = np.vecdot(flat, flat)
    m = gram_difference(nu) / norm
    return m[upper], (nu, norm, m)


def _slice_jacobian(nu, norm, m):
    """The Jacobian in s of _slice_residual, from its state.  Along s_l,
    nu moves by dnu = W_l * nu (_slice_layout), and m = B(nu, nu) /
    |nu|^2, with B the bilinear form of gram_difference, by (B(dnu, nu) +
    B(dnu, nu)^T - 2 <nu, dnu> m) / |nu|^2."""
    W, (iu, ju) = _slice_layout(len(m))
    dnu = np.moveaxis(W, -1, 0) * nu
    B = gram_difference(dnu, nu)
    inner = dnu.reshape(len(m), -1) @ nu.ravel()
    dm = (B + B.swapaxes(-1, -2) - 2.0 * inner[:, None, None] * m) / norm
    return dm[:, iu, ju].T


def _scaled_onto_slice(C, g0, blocks):
    """diag(e^s) with s moved from log diag g0 towards the diagonal moment
    slice, for a draw g0 of the DiagPositive group, whose `blocks` are all
    1 x 1; g0 itself when its moment matrix is already within 1e-11 of
    diagonal.

    Minimum-norm Gauss-Newton on _slice_residual: each step solves J ds =
    -r by lstsq, which takes no step along the directions that leave r
    unchanged (the overall scale, and exp of the diagonal derivations), so
    the scales stay near the draw's.  It stops at max |r| <= 1e-13, at a
    non-finite r or J, or after 60 steps; the caller checks whether the
    element it returns lands.
    """
    s = np.log(np.diag(g0))
    for step in range(61):
        r, state = _slice_residual(C, s)
        worst = np.abs(r).max(initial=0.0)
        if step == 0 and worst <= 1e-11:
            return g0
        if not np.isfinite(worst) or worst <= 1e-13 or step == 60:
            break
        J = _slice_jacobian(*state)
        if not np.isfinite(J).all():
            break
        s -= np.linalg.lstsq(J, r, rcond=None)[0]
    return np.diag(np.exp(s))


def _nearest_identities(V):
    """The columns of each orthogonal V of the stack, permuted and signed
    so that each sits at the basis vector it leans on most, with a
    positive entry there: the greedy assignment, largest |entry| first,
    each row and column taken once.  One argmax a round over the stack,
    on |V| with the taken rows and columns masked to -1; argmax gives a
    tie to the first entry in row-major order, as a stable sort of the
    entries would."""
    count, s, _ = V.shape
    A, W, at = np.abs(V), np.empty_like(V), np.arange(count)
    for _ in range(s):
        r, c = np.divmod(A.reshape(count, s * s).argmax(axis=1), s)
        col = V[at, :, c]
        W[at, :, r] = np.where((V[at, r, c] > 0)[:, None], col, -col)
        A[at, r, :] = -1.0
        A[at, :, c] = -1.0
    return W


def _scaled_draws(C, G0, blocks):
    """_scaled_onto_slice on each DiagPositive draw of the stack G0, one at
    a time, since each solve takes its own number of steps; a row of NaN
    for a draw whose least-squares step fails."""
    G = np.full(G0.shape, np.nan)
    for g, g0 in zip(G, G0):
        try:
            g[:] = _scaled_onto_slice(C, g0, blocks)
        except np.linalg.LinAlgError:   # an SVD that failed
            pass
    return G


def _rotated_draws(C, G0, blocks):
    """K g0 for each draw g0 of the stack G0, with K the block-diagonal
    orthogonal matrix that diagonalises the moment matrix m of g0 . C, as
    m(K . nu) = K m(nu) K^T.  For g0 in a centralizer group m is block
    diagonal, exactly: every product off the blocks has an exactly zero
    factor.  K's blocks are eigenvectors of m's, one stacked eigh per block
    larger than 1 x 1, put in the order nearest the identity, not eigh's
    ascending one, by one stacked greedy assignment (_nearest_identities)
    per block.  A row of NaN for a draw that is not finite, is singular, or
    whose m is not finite on such a block."""
    G = np.full(G0.shape, np.nan)
    ok = _invertible(G0)
    m = _acted_moment_matrix(C, G0[ok])
    K = np.broadcast_to(np.eye(G0.shape[-1]), m.shape).copy()
    for blk in blocks:
        if len(blk) > 1:
            rows, cols = np.ix_(blk, blk)
            sub = m[:, rows, cols]
            fine = np.isfinite(sub).all(axis=(-2, -1))
            K[~fine] = np.nan
            K[np.ix_(fine, blk, blk)] = _nearest_identities(
                np.linalg.eigh(sub[fine])[1]).swapaxes(-1, -2)
    G[ok] = K @ G0[ok]
    return G


def _invertible(G):
    """Which matrices of the stack G are finite and invertible by
    np.linalg.inv, which refuses exactly those whose LU factorisation meets
    a zero pivot: slogdet's sign is 0 there."""
    ok = np.isfinite(G).all(axis=(-2, -1))
    ok[ok] = np.linalg.slogdet(G[ok])[0] != 0
    return ok


_SPENT = ("steering onto the diagonal moment slice kept failing; "
          "the orbit may have no diagonal moment values")


def _sliced_points(rng, b, blocks, count, onto_slice):
    """`count` (g, moment value) pairs, a stack of draws at a time.  Each
    round draws the elements still needed (_draw_block_elements), moves the
    stack onto the slice by onto_slice(C, G0, blocks), acts on b and
    measures it once, and keeps, in draw order, each g that is finite and
    invertible, whose acted constants after act's cut (cut_tensor) are
    finite and not all zero, and whose moment value is within 1e-11 of
    diagonal.  MomentValue's checks run once on the stack of those usable
    draws, kept or not, and raise for the first that fails them; the kept
    values are not checked again.  Every draw spends one of 80 * count.
    No draw depends on an earlier outcome, and no draw is taken past the
    last one kept, so the points, and the rng state after them, are those
    of drawing one element at a time."""
    C, points = b.tensor(), []
    budget, diagonal = 80 * count, np.arange(b.dim)
    while len(points) < count:
        k = min(count - len(points), budget)
        if k == 0:
            raise NumericalError(_SPENT)
        budget -= k
        G0 = _draw_block_elements(rng, blocks, b.dim, k)
        with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
            G = onto_slice(C, G0, blocks)
            G = G[_invertible(G)]
            acted = cut_tensor(act_tensor(C, G))
            flat = acted.reshape(len(G), C.size)
            usable = flat.any(axis=-1) & np.isfinite(flat).all(axis=-1)
            G, M = G[usable], _moment_matrices(acted[usable])
            off = M.copy()   # m - diag(m), as MomentValue.offdiagonal_max forms it
            off[:, diagonal, diagonal] -= M[:, diagonal, diagonal]
            lands = np.abs(off).max(axis=(-2, -1)) <= 1e-11
            _check_moment_matrices(M)   # raises on any usable draw, kept or not
            points += zip(G[lands], _checked_values(M[lands]))
    return points


_TAG_STREAM = {DIAG_POSITIVE: 11, TORUS_CENTRALIZER: 12, DERIVATION_CENTRALIZER: 13}


def orbit_sample(tag, b: Bracket, count: int = 32, seed: int = 0,
                 derivation=None) -> OrbitSample:
    """Sample `count` group elements and the moment values they induce.

    Diagonal entries are log-uniform in [e^-6, e^6], off-diagonal block
    entries standard normal, near-singular draws rejected.  Each draw g0
    is then moved inside the group onto the locus where the acted moment
    value is diagonal, so the emitted diagonal projections are genuine
    points of the diagonal image of the orbit.  A draw is kept if its
    element and acted bracket are finite, the bracket is nonzero and its
    emitted moment value is within 1e-11 of diagonal; else it is redrawn.
    Every draw spends one of 80 * count; NumericalError is raised once
    they are spent.

    On TorusCentralizer and DerivationCentralizer one rotation inside
    the group's blocks diagonalises the moment value in closed form
    (_rotated_draws), and every draw lands.  A DiagPositive draw, whose
    moment value on a basis that is not nice is not diagonal, is moved by
    minimum-norm Gauss-Newton in its log scales (_scaled_onto_slice):
    diag(e^s) . C is C scaled entrywise, so the residual and its Jacobian
    are closed forms in s.  The draws still needed are drawn, moved, acted
    on, measured and checked as one stack (_sliced_points), with the bytes
    and the errors of one draw at a time; only the generator calls, and
    Gauss-Newton's solves, go one draw at a time.
    """
    if tag not in GROUP_TAGS:
        raise PreconditionError(f"unknown group tag {tag!r}; "
                                f"expected one of {GROUP_TAGS}")
    if count < 1:
        raise PreconditionError("count must be positive")
    blocks = _group_blocks(tag, b, derivation)
    seed = int(seed)
    rng = generator(seed, _TAG_STREAM[tag])
    onto_slice = _scaled_draws if tag == DIAG_POSITIVE else _rotated_draws
    return OrbitSample(tag, tuple(_sliced_points(rng, b, blocks, count, onto_slice)), seed)
