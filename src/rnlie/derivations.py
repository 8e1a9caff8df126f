"""Derivations of a bracket: the full derivation algebra, the diagonal
torus with its weights, additive Jordan decomposition, and the signed
permutation approximation of the orthogonal Weyl group.

The diagonal torus is computed as the orthogonal complement, inside the
diagonal matrices, of the weight vectors F_ij^k of the nonzero structure
constants.  Its basis is kept exact (Fractions) so that torus membership
and weight multiplicities are decided without tolerances.

Every route reads a derivation argument through derivation_matrix (as
floats) or diagonal_derivation, the one gate for a diagonal derivation
of a bracket.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import _rational
from .brackets import Bracket, _null_space
from .errors import NumericalError, PreconditionError

MAX_SIGNED_PERM_DIM = 8


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
        scale = float(np.linalg.norm(derivation_matrix(D))) * float(np.sqrt(float(b.norm_sq())))
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


def _leibniz_rows_rational(b: Bracket):
    n = b.dim
    rows = []
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(n):
                row = [Fraction(0)] * (n * n)
                # D[e_i,e_j] component k: sum_l c_ij^l D[k,l]
                for (p, q, l), c in b.constants.items():
                    if p == i and q == j:
                        row[k * n + l] += c
                # -[De_i, e_j]^k: -sum_l D[l,i] c_lj^k  (full tensor)
                for (p, q, r), c in b.constants.items():
                    if r != k:
                        continue
                    if q == j:
                        row[p * n + i] -= c
                    if p == j:
                        row[q * n + i] += c
                    if q == i:
                        row[p * n + j] += c
                    if p == i:
                        row[q * n + j] -= c
                if any(v != 0 for v in row):
                    rows.append(row)
    return rows


def derivation_space(b: Bracket, scalars: str = "float"):
    """Basis of the derivation algebra Der(b).

    scalars="float": orthonormal basis as a list of (n, n) arrays.
    scalars="rational": canonical exact basis as Fraction matrices
    (requires rational constants).
    """
    n = b.dim
    if scalars == "rational":
        if not b.is_rational:
            raise PreconditionError("exact derivation space needs rational constants")
        rows = _leibniz_rows_rational(b)
        if not rows:
            basis = [[Fraction(int(a == i)) for a in range(n * n)] for i in range(n * n)]
        else:
            basis = _rational.nullspace(rows, ncols=n * n)
        return [[[vec[r * n + c] for c in range(n)] for r in range(n)] for vec in basis]
    C = b.tensor()
    eye = np.eye(n)
    # rows indexed by (i<j, k), unknown D flattened as D[r, c] -> r*n + c
    rows = []
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(n):
                row = np.zeros((n, n))
                row[k, :] += C[i, j, :]
                row[:, i] -= C[:, j, k]
                row[:, j] -= C[i, :, k]
                rows.append(row.ravel())
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
            # each rref row is 1 at its pivot column and the others are 0 there
            sol = [Fraction(entries[next(i for i, v in enumerate(row) if v)])
                   for row in self.basis]
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
    """
    if not b.is_rational:
        raise PreconditionError("diagonal torus requires rational constants")
    n = b.dim
    # one row per nonzero constant: d -> d_k - d_i - d_j vanishes on the torus
    rows = [weight_vector(t, n) for t in sorted(b.constants)]
    if rows:
        ns = _rational.nullspace(rows, ncols=n)
    else:
        ns = [[Fraction(int(i == j)) for i in range(n)] for j in range(n)]
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
# additive Jordan decomposition


@dataclass(frozen=True)
class JordanParts:
    """D = real_part + imaginary_part + nilpotent_part, all commuting.

    real_part is diagonalizable over R, imaginary_part is diagonalizable
    over C with purely imaginary spectrum, nilpotent_part is nilpotent.
    """

    real_part: np.ndarray
    imaginary_part: np.ndarray
    nilpotent_part: np.ndarray


def _cluster_eigenvalues(vals, tol):
    """Union-find clustering of complex eigenvalues by absolute gap tol."""
    m = len(vals)
    parent = list(range(m))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for i in range(m):
        for j in range(i + 1, m):
            if abs(vals[i] - vals[j]) <= tol:
                ri, rj = find(i), find(j)
                if ri != rj:
                    parent[ri] = rj
    groups = {}
    for i in range(m):
        groups.setdefault(find(i), []).append(i)
    return list(groups.values())


def jordan_decompose(D) -> JordanParts:
    """Additive Jordan decomposition via clustered generalized eigenspaces.

    Eigenvalues within 1e-7 relative to the spectral radius share a
    cluster.  Raises NumericalError when the clusters cannot be separated
    to that accuracy (the achieved residual is reported).
    """
    tol = 1e-7
    D = derivation_matrix(D)
    n = D.shape[0]
    if n == 0:
        z = np.zeros((0, 0))
        return JordanParts(z, z, z)
    vals = np.linalg.eigvals(D)
    scale = max(1.0, float(np.abs(vals).max()))
    groups = _cluster_eigenvalues(list(vals), tol * scale)

    reps = []
    for g in groups:
        reps.append((complex(np.mean([vals[i] for i in g])), len(g)))
    # force conjugate symmetry of the representative list
    cleaned = []
    used = [False] * len(reps)
    for a, (lam, m) in enumerate(reps):
        if used[a]:
            continue
        if abs(lam.imag) <= tol * scale:
            cleaned.append((complex(lam.real), m))
            used[a] = True
            continue
        partner = None
        for bidx in range(len(reps)):
            if bidx != a and not used[bidx] and abs(reps[bidx][0] - lam.conjugate()) <= 10 * tol * scale:
                partner = bidx
                break
        if partner is None:
            raise NumericalError("complex eigenvalue cluster without a conjugate partner")
        if reps[partner][1] != m:
            raise NumericalError("conjugate clusters of unequal multiplicity")
        lam = complex(lam.real, abs(lam.imag))
        cleaned.append((lam, m))
        cleaned.append((lam.conjugate(), m))
        used[a] = used[partner] = True

    cols = []
    block_vals = []
    eye = np.eye(n)
    half = [c for c in cleaned if c[0].imag >= 0]
    for lam, m in half:
        A = np.linalg.matrix_power(D.astype(complex) - lam * eye, m)
        vt = np.linalg.svd(A)[2]
        W = vt.conj().T[:, n - m:]
        cols.append(W)
        block_vals.extend([lam] * m)
        if lam.imag > 0:
            cols.append(W.conj())
            block_vals.extend([lam.conjugate()] * m)
    V = np.hstack(cols)
    if V.shape != (n, n):
        raise NumericalError("generalized eigenspaces do not fill the space")
    condV = np.linalg.cond(V)
    if not np.isfinite(condV) or condV > 1e12:
        raise NumericalError(f"eigenbasis condition number {condV:.2e} too large")
    Vinv = np.linalg.inv(V)

    def reconstruct(values):
        M = (V * np.asarray(values)[None, :]) @ Vinv
        if np.abs(M.imag).max() > 1e-7 * scale:
            raise NumericalError(
                f"non-real reconstruction, residual {np.abs(M.imag).max():.3e}")
        return M.real

    S = reconstruct(block_vals)
    R = reconstruct([v.real for v in block_vals])
    I = S - R
    N = D - S

    # invariant gate: commuting parts, nilpotent remainder
    resid = 0.0
    for A, B in ((R, I), (R, N), (I, N)):
        resid = max(resid, float(np.abs(A @ B - B @ A).max()))
    npow = np.linalg.matrix_power(N, n)
    resid = max(resid, float(np.abs(npow).max()) ** (1.0 / max(n, 1)) if np.abs(npow).max() > 0 else 0.0)
    if resid > 1e-6 * max(1.0, scale) ** 2:
        raise NumericalError(f"Jordan parts fail invariants, residual {resid:.3e}")
    return JordanParts(R, I, N)


# ---------------------------------------------------------------------------
# signed permutation Weyl group


def _signed_perm_matrix(perm, signs) -> np.ndarray:
    n = len(perm)
    M = np.zeros((n, n), dtype=int)
    for i in range(n):
        M[perm[i], i] = signs[i]
    return M


def _automorphism_signed_perms(b: Bracket):
    """All signed permutations g with g . mu = mu, by pruned backtracking."""
    n = b.dim
    if n > MAX_SIGNED_PERM_DIM:
        raise PreconditionError(
            f"signed permutation search capped at dimension {MAX_SIGNED_PERM_DIM}")
    support = {}
    for (i, j, k), c in b.constants.items():
        support.setdefault((i, j), {})[k] = c
    abs_profile = {}
    for (i, j), sup in support.items():
        abs_profile[(i, j)] = sorted(abs(Fraction(c)) for c in sup.values())

    def pair_profile(i, j):
        key = (i, j) if i < j else (j, i)
        return abs_profile.get(key, [])

    results = []
    perm = [-1] * n
    signs = [0] * n
    used = [False] * n

    def images_consistent(i, j):
        """Exact check of g[e_i,e_j] = [ge_i, ge_j] when fully assigned."""
        key = (i, j) if i < j else (j, i)
        flip = 1 if i < j else -1
        sup = support.get(key, {})
        a, bb = perm[i], perm[j]
        sgn = signs[i] * signs[j] * flip
        tkey = (a, bb) if a < bb else (bb, a)
        tflip = 1 if a < bb else -1
        tsup = support.get(tkey, {})
        # lhs: sum_k c_ij^k s_k e_{perm k}; rhs: sgn * tflip * c'_{tkey}
        lhs = {}
        for k, c in sup.items():
            if perm[k] < 0:
                return True  # defer until the support is mapped
            lhs[perm[k]] = Fraction(flip) * Fraction(c) * signs[k]
        rhs = {r: Fraction(sgn) * Fraction(tflip) * Fraction(c) for r, c in tsup.items()}
        return lhs == rhs

    def extend(i):
        if i == n:
            # full verification over every pair
            for a in range(n):
                for bb in range(a + 1, n):
                    if not images_consistent(a, bb):
                        return
            results.append((tuple(perm), tuple(signs)))
            return
        for target in range(n):
            if used[target]:
                continue
            ok = True
            for a in range(i):
                prof = pair_profile(a, i)
                tprof = pair_profile(perm[a], target)
                if prof != tprof:
                    ok = False
                    break
            if not ok:
                continue
            perm[i] = target
            used[target] = True
            for s in (1, -1):
                signs[i] = s
                good = True
                for a in range(i):
                    if not images_consistent(a, i):
                        good = False
                        break
                if good:
                    extend(i + 1)
            signs[i] = 0
            perm[i] = -1
            used[target] = False

    extend(0)
    return results


def torus_coordinate_action(g, torus: Torus):
    """Matrix of T -> g T g^-1 on torus coordinates, or None if g does
    not normalize the torus.  g is a signed permutation matrix; the
    computation is exact."""
    n = torus.ambient_dim
    G = np.asarray(g)
    perm = [int(np.argmax(np.abs(G[:, i]))) for i in range(n)]
    rows = [weight_vector(t, n) for t in torus.bracket.constants]
    cols_matrix = [[torus.basis[l][i] for l in range(torus.dim)] for i in range(n)]
    action = []
    for row in torus.basis:
        conj = [Fraction(0)] * n
        for i in range(n):
            conj[perm[i]] = row[i]
        for wrow in rows:
            if sum(a * bb for a, bb in zip(wrow, conj)) != 0:
                return None
        coords = _rational.solve(cols_matrix, conj)
        if coords is None:
            return None
        action.append(coords)
    # columns of the action matrix are images of basis coordinates
    r = torus.dim
    return [[action[c][r_] for c in range(r)] for r_ in range(r)]


def orthogonal_weyl_group(b: Bracket):
    """Signed permutation automorphisms of the bracket, as a matrix group.

    Every signed permutation automorphism normalizes the diagonal torus
    (conjugation preserves both Diag and the derivation algebra), so the
    returned list is closed under products and inverses and contains the
    identity.  This is an under-approximation of the full orthogonal
    normalizer: continuous families of orthogonal automorphisms are not
    searched.  Use torus_coordinate_action to read off the induced exact
    action on torus coordinates, and weyl_coordinate_actions for the
    deduplicated action list.
    """
    autos = _automorphism_signed_perms(b)
    mats = []
    seen_keys = set()
    ident = (tuple(range(b.dim)), (1,) * b.dim)
    for perm, signs in sorted(autos, key=lambda ps: (ps != ident, ps)):
        if (perm, signs) in seen_keys:
            continue
        seen_keys.add((perm, signs))
        mats.append(_signed_perm_matrix(perm, signs))
    return mats


def weyl_coordinate_actions(b: Bracket, torus: Torus | None = None):
    """Distinct exact actions on torus coordinates induced by the signed
    permutation automorphism group, identity first."""
    if torus is None:
        torus = diagonal_torus(b)
    seen = {}
    for g in orthogonal_weyl_group(b):
        act_mat = torus_coordinate_action(g, torus)
        if act_mat is None:
            raise NumericalError("automorphism failed to normalize the torus")
        key = tuple(tuple(row) for row in act_mat)
        if key not in seen:
            seen[key] = act_mat
    ident = tuple(tuple(Fraction(int(i == j)) for j in range(torus.dim)) for i in range(torus.dim))
    keys = sorted(seen, key=lambda k: (k != ident, k))
    return [seen[k] for k in keys]
