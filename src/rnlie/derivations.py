"""Derivations of a bracket: the full derivation algebra, the diagonal
torus with its weights, and the exact actions on torus coordinates of
the signed permutation automorphisms, which a search over permutations
finds by deciding which of them lift.

The diagonal torus is computed as the orthogonal complement, inside the
diagonal matrices, of the weight vectors F_ij^k of the nonzero structure
constants.  Its basis is kept exact (Fractions) so that torus membership
and weight multiplicities are decided without tolerances.

Every route reads a derivation argument through derivation_matrix (as
floats) or diagonal_derivation, the one gate for a diagonal derivation
of a bracket.

The derivation algebra is the kernel of one set of Leibniz rows, built
from the structure tensor that brackets expands from the constants (the
antisymmetry is written out only there), in floats or exactly; the
scalars pick only the kernel: an SVD, or exact row reduction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import _rational
from .brackets import Bracket, _memo, _norm, _null_space
from .errors import NumericalError, PreconditionError


def weight_vector(triple, dim):
    """Diagonal of F_ij^k as a tuple of ints: -1 at i and j, +1 at k."""
    i, j, k = triple
    v = [0] * dim
    v[i] -= 1
    v[j] -= 1
    v[k] += 1
    return tuple(v)


def leibniz_residual(D, b: Bracket) -> float:
    """max over basis pairs of |D[e_i,e_j] - [De_i,e_j] - [e_i,De_j]|,
    inf or nan when it overflows."""
    C = b.tensor()
    D = derivation_matrix(D)
    with np.errstate(over="ignore", invalid="ignore"):
        lhs = np.einsum("kl,ijl->ijk", D, C)
        rhs = np.einsum("li,ljk->ijk", D, C) + np.einsum("lj,ilk->ijk", D, C)
        diff = lhs - rhs
        return float(np.sqrt((diff ** 2).sum(axis=2)).max()) if diff.size else 0.0


def is_derivation(D, b: Bracket) -> bool:
    """Leibniz residual within 1e-9 relative to |D|_F |b|.  A residual
    that overflows is refused, whatever its scale."""
    with np.errstate(over="ignore"):
        scale = float(np.linalg.norm(derivation_matrix(D))) * _norm(b)
    residual = leibniz_residual(D, b)
    return bool(np.isfinite(residual)) and residual <= max(1e-12, 1e-9 * scale)


def require_derivation(D, b: Bracket) -> None:
    """Raise PreconditionError unless D passes the relative Leibniz gate."""
    if not is_derivation(D, b):
        raise PreconditionError(
            f"not a derivation, Leibniz residual {leibniz_residual(D, b):.3e}")


def derivation_matrix(D, n: int | None = None) -> np.ndarray:
    """D as a float matrix, given as a matrix or a vector of entries (its
    diagonal matrix).  With n, any shape but n x n raises
    PreconditionError."""
    return _matrix_of(D, n, float)


def _matrix_of(D, n, dtype) -> np.ndarray:
    """derivation_matrix with entries of dtype.  With object, the entries
    stay as given, so int and Fraction entries stay exact (an integer
    array's entries come back as Python ints)."""
    M = np.asarray(D).astype(dtype, copy=False)
    if M.ndim == 1:
        M = np.diag(M)
    if n is not None and M.shape != (n, n):
        raise PreconditionError(f"derivation shape {M.shape} does not match")
    return M


def _is_diagonal(M: np.ndarray) -> bool:
    """No off-diagonal entry of the float matrix M above 1e-9 relative to
    its largest entry."""
    off = M - np.diag(np.diag(M))
    return not off.size or float(np.abs(off).max()) <= 1e-9 * max(1.0, float(np.abs(M).max()))


def diagonal_derivation(D, b: Bracket) -> list:
    """Diagonal entries of D, which must be a diagonal derivation of b,
    given as an n x n matrix or a vector of its n diagonal entries.

    int and Fraction entries come back as exact Fractions, all others as
    floats, so rational input reaches the exact programs unrounded.
    Off-diagonal entries above 1e-9 relative to the largest entry raise
    PreconditionError, and so does a D off the diagonal torus, one with
    d_k - d_i - d_j nonzero on some nonzero c_ij^k.  The test is exact
    when every entry is exact; with a float entry it allows 1e-9 relative
    to the largest entry, and refuses non-finite entries.  It reads only
    which constants are nonzero, never their size.
    """
    M = _matrix_of(D, b.dim, object)
    F = M.astype(float)
    if not np.isfinite(F).all():
        raise PreconditionError("derivation entries must be finite")
    if not _is_diagonal(F):
        raise PreconditionError("this operation needs a diagonal derivation")
    d = [Fraction(x) if isinstance(x, (int, Fraction)) else float(x)
         for x in np.diag(M).tolist()]
    exact = all(isinstance(x, Fraction) for x in d)
    tol = 0 if exact else 1e-9 * float(np.abs(F).max(initial=1.0))
    for (i, j, k) in b.constants:
        r = d[k] - d[i] - d[j]
        if not abs(r) <= tol:
            raise PreconditionError(
                f"not a derivation, d_k - d_i - d_j = {r} at {(i, j, k)}")
    return d


def _positive_trace(diag) -> bool:
    """Whether the entries diag that diagonal_derivation returned sum to
    a positive trace: decided exactly when every entry is a Fraction,
    as a float sum above 1e-10 otherwise."""
    total = sum(diag)
    return total > 0 if isinstance(total, Fraction) else float(total) > 1e-10


def derivation_space(b: Bracket, scalars: str = "float"):
    """Basis of the derivation algebra Der(b).

    scalars="float": orthonormal basis as a list of (n, n) arrays.
    scalars="rational": canonical exact basis as Fraction matrices
    (requires rational constants).  The Leibniz rows are built once,
    from the structure tensor in the chosen scalars; the scalars pick
    only the kernel.
    """
    n = b.dim
    exact = scalars == "rational"
    if exact and not b.is_rational:
        raise PreconditionError("exact derivation space needs rational constants")
    C = b._exact_tensor() if exact else b.tensor()
    # rows indexed by (i<j, k), unknown D flattened as D[r, c] -> r*n + c
    rows = []
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(n):
                row = np.zeros((n, n), C.dtype)
                row[k, :] += C[i, j, :]
                row[:, i] -= C[:, j, k]
                row[:, j] -= C[i, :, k]
                rows.append(row.ravel())
    if exact:
        basis = _rational.nullspace([r.tolist() for r in rows if r.any()], ncols=n * n)
        return [[[vec[r * n + c] for c in range(n)] for r in range(n)] for vec in basis]
    A = np.array(rows)
    if not A.size or not np.abs(A).max():
        return [eye.copy() for eye in np.eye(n * n).reshape(n * n, n, n)]
    ns = _null_space(A)
    return [ns[:, i].reshape(n, n) for i in range(ns.shape[1])]


@dataclass(frozen=True)
class Torus:
    """Diagonal torus Der(b) cap Diag, with an exact canonical basis.

    basis rows are diagonal matrices written as vectors of Fractions, in
    reduced row echelon form, so coordinates are read off the pivot
    entries of a torus element.
    """

    bracket: Bracket
    basis: tuple  # tuple of tuples of Fraction
    weights: tuple = field(default=())  # ((coeffs over torus coords, indices), ...)

    @property
    def dim(self) -> int:
        return len(self.basis)

    @property
    def ambient_dim(self) -> int:
        return self.bracket.dim

    @property
    def pivots(self) -> list:
        """Pivot column of each basis row: 1 there, the other rows 0."""
        return [next(i for i, v in enumerate(row) if v) for row in self.basis]

    @property
    def multiplicity_free(self) -> bool:
        return all(len(idx) == 1 for _, idx in self.weights)

    def diagonal_entries(self, coords):
        if len(coords) != self.dim:
            raise PreconditionError("coordinate length does not match torus dimension")
        exact = all(isinstance(x, (int, Fraction)) for x in coords)
        n = self.ambient_dim
        if exact:
            out = [Fraction(0)] * n
            for x, row in zip(coords, self.basis):
                for i in range(n):
                    out[i] += Fraction(x) * row[i]
            return out
        out = np.zeros(n)
        for x, row in zip(coords, self.basis):
            out += float(x) * np.array([float(v) for v in row])
        return out

    def coords_of(self, diagonal):
        """Coordinates of a diagonal matrix in the torus, or None if outside.

        Exact when the entries are rational, least squares with a residual
        gate of 1e-9 relative to the entries otherwise.
        """
        n = self.ambient_dim
        entries = list(diagonal)
        if len(entries) != n:
            raise PreconditionError("diagonal length mismatch")
        if self.dim == 0:
            zero = all((x == 0 if isinstance(x, (int, Fraction)) else abs(float(x)) <= 1e-9)
                       for x in entries)
            return () if zero else None
        if all(isinstance(x, (int, Fraction)) for x in entries):
            sol = [Fraction(entries[p]) for p in self.pivots]
            recon = self.diagonal_entries(sol)
            if any(r != Fraction(e) for r, e in zip(recon, entries)):
                return None
            return tuple(sol)
        A = np.array([[float(v) for v in row] for row in self.basis]).T
        y = np.array([float(x) for x in entries])
        sol, *_ = np.linalg.lstsq(A, y, rcond=None)
        if np.linalg.norm(A @ sol - y) > 1e-9 * max(1.0, np.linalg.norm(y)):
            return None
        return tuple(float(v) for v in sol)

    def trace_functional(self):
        """Coefficients of tr over the torus coordinates (exact)."""
        return tuple(sum(row) for row in self.basis)


def diagonal_torus(b: Bracket) -> Torus:
    """Torus of diagonal derivations, with its weight partition.

    The torus is the orthogonal complement in Diag(n) of the weight
    vectors F_ij^k of the nonzero constants.  Weight classes partition
    the index set by equality of the functionals D -> D_ii on the torus.

    The result is computed once per Bracket instance and shared by every
    later call on it, so callers should reuse one bracket, as corpus()
    and the CLI do; an equal bracket built anew pays for its own.  A
    float bracket raises PreconditionError on every call.
    """
    return _memo(b, "_diagonal_torus", _diagonal_torus)


def _diagonal_torus(b: Bracket) -> Torus:
    if not b.is_rational:
        raise PreconditionError("diagonal torus requires rational constants")
    n = b.dim
    # one row per nonzero constant: d -> d_k - d_i - d_j vanishes on the torus
    rows = [weight_vector(t, n) for t in sorted(b.constants)]
    ns = _rational.nullspace(rows, ncols=n)
    if ns:
        red, piv = _rational.rref(ns)
        basis = tuple(tuple(r) for r in red[: len(piv)])
    else:
        basis = ()
    r = len(basis)
    # classes in order of first index, looked up by (numerator,
    # denominator) pairs, which hash far faster than Fractions
    cols = {}
    for i in range(n):
        key = tuple(basis[l][i] for l in range(r))
        cols.setdefault(tuple((x.numerator, x.denominator) for x in key), (key, []))[1].append(i)
    weights = tuple((key, tuple(idx)) for key, idx in cols.values())
    return Torus(b, basis, weights)


# ---------------------------------------------------------------------------
# Weyl group actions on the torus

# Partial permutations, the empty one included, that the Weyl group
# search may visit: heisenberg:11 takes 18 992, abelian:8 109 601.
MAX_PERM_SEARCH_NODES = 50_000


def _gf2_dependencies(masks):
    """The dependencies among the bitmask rows masks over GF(2): for each
    row that forward elimination reduces to zero, the bitmask of the input
    rows that sum to it.  They span every dependency."""
    pivots, dependencies = [], []
    for t, row in enumerate(masks):
        comb = 1 << t
        for bit, prow, pcomb in pivots:
            if row & bit:
                row, comb = row ^ prow, comb ^ pcomb
        if row:
            pivots.append((row & -row, row, comb))
        else:
            dependencies.append(comb)
    return dependencies


def _lifting_permutations(b: Bracket):
    """The permutations pi of the basis that lift to automorphisms
    e_i -> s_i e_pi(i), s_i = +-1.

    Backtracking over permutations, pruned by the multiset of |c_ij^k|
    over k of each pair.  A leaf lifts when each constant c_ij^k meets a
    constant of the same size at (pi i, pi j, pi k) and the sign
    equations s_i + s_j + s_k = [c_ij^k and its image c_(pi i)(pi j)^(pi k),
    read from the bracket's pair table, have opposite signs] are
    consistent over GF(2): every dependency among their left-hand sides
    sums an even number of right-hand sides.  Raises PreconditionError
    past MAX_PERM_SEARCH_NODES search nodes.
    """
    n = b.dim
    sizes = {}
    consts = [(i, j, k, sizes.setdefault(abs(c), len(sizes)), c < 0)
              for (i, j, k), c in b.constants.items()]
    image_of = {(i, j, k): (sizes[abs(c)], c < 0) for i, row in enumerate(b._pair_table())
                for j, terms in row.items() for k, c in terms}
    prof = [[()] * n for _ in range(n)]  # sorted sizes over k of each pair
    for i, j, _, size, _ in sorted(consts, key=lambda t: t[3]):
        prof[i][j] = prof[j][i] = prof[i][j] + (size,)
    dependencies = _gf2_dependencies(
        [(1 << i) ^ (1 << j) ^ (1 << k) for i, j, k, _, _ in consts])
    found = []
    perm, used, nodes = [0] * n, [False] * n, 0

    def leaf():
        rhs = 0
        for t, (i, j, k, size, neg) in enumerate(consts):
            image = image_of.get((perm[i], perm[j], perm[k]))
            if image is None or image[0] != size:
                return
            if image[1] ^ neg:
                rhs |= 1 << t
        if not any((comb & rhs).bit_count() & 1 for comb in dependencies):
            found.append(tuple(perm))

    def extend(i):
        nonlocal nodes
        nodes += 1
        if nodes > MAX_PERM_SEARCH_NODES:
            raise PreconditionError(
                f"Weyl group search passed {MAX_PERM_SEARCH_NODES} nodes")
        if i == n:
            leaf()
            return
        for t in range(n):
            if not used[t] and all(prof[a][i] == prof[perm[a]][t] for a in range(i)):
                perm[i], used[t] = t, True
                extend(i + 1)
                used[t] = False

    extend(0)
    return found


def _conjugate_pivots(perm, torus: Torus, rows):
    """The indices pi^-1(p) of the torus basis's pivot columns p, or None
    when a lift of the permutation pi, which carries diag(d) to the
    diagonal with d_i at pi(i), moves the torus off itself; rows are the
    basis rows scaled to integers.  Each conjugated row is tested exactly
    against d_k - d_i - d_j = 0 on every constant; the basis being in
    RREF, its torus coordinates are its entries at the pivots."""
    inv = [0] * len(perm)
    for i, p in enumerate(perm):
        inv[p] = i
    for row in rows:
        for i, j, k in torus.bracket.constants:
            if row[inv[k]] != row[inv[i]] + row[inv[j]]:
                return None
    return [inv[p] for p in torus.pivots]


def weyl_coordinate_actions(b: Bracket, torus: Torus | None = None):
    """Distinct exact actions on torus coordinates induced by the signed
    permutation automorphism group, identity first, then in order.

    Signs commute with the torus, so each permutation that lifts gives
    one action, whose row l is the torus basis column at pi^-1 of the
    l-th pivot; actions are told apart and sorted by those columns' ranks.
    """
    if torus is None:
        torus = diagonal_torus(b)
    columns = [tuple(row[i] for row in torus.basis) for i in range(b.dim)]
    distinct = sorted(set(columns))
    ranks = [distinct.index(col) for col in columns]
    rows = [_rational._integer_row(row)[0] for row in torus.basis]
    keys = set()
    for perm in _lifting_permutations(b):
        pre = _conjugate_pivots(perm, torus, rows)
        if pre is None:
            raise NumericalError("automorphism failed to normalize the torus")
        keys.add(tuple(ranks[i] for i in pre))
    ident = tuple(ranks[p] for p in torus.pivots)
    return [[list(distinct[r]) for r in key]
            for key in sorted(keys, key=lambda k: (k != ident, k))]
