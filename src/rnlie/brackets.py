"""Antisymmetric bracket tensors on R^n and the basis-change action.

A bracket is stored sparsely through its structure constants c_ij^k for
i < j, so that mu(e_i, e_j) = sum_k c_ij^k e_k with respect to the fixed
orthonormal basis e_1, ..., e_n.  Constants are either exact rationals
(Fraction) or floats.  This module is the one place that expands the
antisymmetry c_ji^k = -c_ij^k, into two readers of the constants: the
dense (n, n, n) structure tensor (`Bracket.tensor` in floats, and an
exact twin of Fractions for rational brackets) and a sparse pair table.
The Jacobi check, the lower central series, the centre and the
derivation algebra are each written once over those readers; the scalar
kind picks only the kernel, exact row reduction (`_rational`) for
rational constants and an SVD for float ones.

The inner product on the space of brackets sums over ordered index pairs,
so a single basis bracket mu_ijk = (e^i wedge e^j) otimes e_k has squared
norm 2.  This normalization is what makes the Ricci formula in the
curvature module reproduce the classical Heisenberg spectrum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from types import MappingProxyType

import numpy as np

from . import _rational
from .errors import PreconditionError

RATIONAL = "rational"
FLOAT = "float"


@dataclass(frozen=True)
class Bracket:
    """Sparse antisymmetric bracket on R^dim with 0-based indices.

    constants maps (i, j, k) with i < j to a nonzero scalar.  Use
    scalar_kind = "rational" for Fraction constants and "float" for
    floats; mixed dicts are normalized on construction, and a non-finite
    float constant is refused in either kind.  The stored constants are a
    read-only view of the normalized dict, so what diagonal_torus and
    nice_basis_check store on a bracket cannot go stale.
    """

    dim: int
    constants: dict = field(default_factory=dict)
    scalar_kind: str = RATIONAL

    def __post_init__(self):
        if self.scalar_kind not in (RATIONAL, FLOAT):
            raise PreconditionError(f"unknown scalar kind {self.scalar_kind!r}")
        clean = {}
        for (i, j, k), c in self.constants.items():
            if not (0 <= i < self.dim and 0 <= j < self.dim and 0 <= k < self.dim):
                raise PreconditionError(f"index out of range in triple {(i, j, k)}")
            if i >= j:
                raise PreconditionError(f"constants must be keyed with i < j, got {(i, j, k)}")
            if self.scalar_kind == FLOAT:
                c = float(c)
            if isinstance(c, float) and not math.isfinite(c):
                raise PreconditionError(f"non-finite constant {c} in triple {(i, j, k)}")
            if self.scalar_kind == RATIONAL:
                c = Fraction(c)
            if c != 0:
                clean[(i, j, k)] = c
        object.__setattr__(self, "constants", MappingProxyType(clean))

    # -- basic views ---------------------------------------------------

    def tensor(self) -> np.ndarray:
        """Full antisymmetric (n, n, n) float tensor C[i, j, k], built on
        the first call for this instance and read-only, since every later
        call returns that same array."""
        return _memo(self, "_tensor", lambda b: _read_only(
            b._filled(np.zeros((b.dim,) * 3), float)))

    def _exact_tensor(self) -> np.ndarray:
        """tensor() as an exact object array: Fraction constants, and the
        int 0 elsewhere, so that sums over zero entries stay in ints."""
        return self._filled(np.zeros((self.dim,) * 3, object), Fraction)

    def _filled(self, C, scalar):
        for (i, j, k), c in self.constants.items():
            C[i, j, k] = scalar(c)
            C[j, i, k] = -scalar(c)
        return C

    def _pair_table(self) -> list:
        """The constants read by ordered pair: table[i][j], i != j, lists
        the (k, c_ij^k) of the nonzero constants, in the bracket's own
        scalars and in key order."""
        table = [{} for _ in range(self.dim)]
        for (i, j, k), c in self.constants.items():
            table[i].setdefault(j, []).append((k, c))
            table[j].setdefault(i, []).append((k, -c))
        return table

    def norm_sq(self):
        """|mu|^2 with the ordered-pair convention (each i < j entry counts twice)."""
        if self.scalar_kind == RATIONAL:
            return 2 * sum(c * c for c in self.constants.values())
        return 2.0 * sum(float(c) ** 2 for c in self.constants.values())

    def is_zero(self) -> bool:
        return not self.constants

    @property
    def is_rational(self) -> bool:
        return self.scalar_kind == RATIONAL

    def to_float(self) -> "Bracket":
        if self.scalar_kind == FLOAT:
            return self
        return Bracket(self.dim, {t: float(c) for t, c in self.constants.items()}, FLOAT)

    def scaled(self, s) -> "Bracket":
        if self.scalar_kind == RATIONAL and isinstance(s, (int, Fraction)):
            return Bracket(self.dim, {t: c * s for t, c in self.constants.items()}, RATIONAL)
        return Bracket(self.dim, {t: float(c) * float(s) for t, c in self.constants.items()}, FLOAT)

    def restricted(self, triples) -> "Bracket":
        """Sub-bracket keeping only the given (i, j, k) triples."""
        keep = set(triples)
        return Bracket(self.dim, {t: c for t, c in self.constants.items() if t in keep},
                       self.scalar_kind)

    def __repr__(self):
        parts = ", ".join(f"[e{i + 1},e{j + 1}]->e{k + 1}:{c}"
                          for (i, j, k), c in sorted(self.constants.items()))
        return f"Bracket(dim={self.dim}, {parts or 'abelian'})"


def _norm(b: Bracket) -> float:
    """|mu| as a float, computed once per Bracket instance."""
    return _memo(b, "_norm", lambda b: float(np.sqrt(float(b.norm_sq()))))


def _tensor_support(b: Bracket):
    """_nonzero_entries(b.tensor()), read-only and computed once per
    Bracket instance."""
    return _memo(b, "_tensor_support", lambda b: tuple(
        map(_read_only, _nonzero_entries(b.tensor()))))


def _read_only(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def _nonzero_entries(C: np.ndarray):
    """The nonzero entries of a structure tensor: the index arrays
    (i, j, k) of np.nonzero(C) and the values C[i, j, k]."""
    i, j, k = np.nonzero(C)
    return i, j, k, C[i, j, k]


def _memo(b: Bracket, name: str, build):
    """build(b), computed on the first call for this Bracket instance and
    stored in its instance dict under name, as functools.cached_property
    stores its value; later calls return that same object.  Equality and
    repr read only the fields, so the stored value changes neither.  If
    build raises, nothing is stored."""
    try:
        return b.__dict__[name]
    except KeyError:
        value = b.__dict__[name] = build(b)
        return value


@dataclass(frozen=True)
class BasisChange:
    """Invertible matrix h acting on brackets by h . mu = h mu(h^-1 ., h^-1 .)."""

    matrix: object  # ndarray, or list of list of Fraction for the exact path

    def as_array(self) -> np.ndarray:
        if isinstance(self.matrix, np.ndarray):
            return self.matrix
        return np.array([[float(x) for x in row] for row in self.matrix])

    @property
    def is_rational(self) -> bool:
        return not isinstance(self.matrix, np.ndarray)

    @staticmethod
    def diagonal(entries) -> "BasisChange":
        entries = list(entries)
        if all(isinstance(e, (int, Fraction)) for e in entries):
            n = len(entries)
            return BasisChange([[Fraction(entries[i]) if i == j else Fraction(0)
                                 for j in range(n)] for i in range(n)])
        return BasisChange(np.diag([float(e) for e in entries]))


def act(h: BasisChange, b: Bracket) -> Bracket:
    """Basis-change action (h . mu)(x, y) = h mu(h^-1 x, h^-1 y).

    This is a left action: act(h1 @ h2, mu) = act(h1, act(h2, mu)).
    Rational h on a rational bracket stays exact.  A float h with a
    non-finite entry raises PreconditionError: its bracket would be NaN
    wherever that entry reaches, and the cut below drops NaN constants.
    So does a finite h whose action overflows a constant: the cut, taken
    relative to an infinite largest constant, would drop every constant.
    """
    if not isinstance(h, BasisChange):
        h = BasisChange(h)
    if b.is_rational and h.is_rational:
        hinv = _rational.inverse(h.matrix)
        if hinv is None:
            raise PreconditionError("basis change matrix is singular")
        n = b.dim
        hm = h.matrix
        new = {}
        for (p, q, r), c in b.constants.items():
            for i in range(n):
                hpi = hinv[p][i]
                hqi_neg = hinv[q][i]
                for j in range(i + 1, n):
                    # antisymmetrized pullback of the (p, q) slot
                    w = c * (hpi * hinv[q][j] - hqi_neg * hinv[p][j])
                    if w == 0:
                        continue
                    for k in range(n):
                        if hm[k][r] != 0:
                            key = (i, j, k)
                            new[key] = new.get(key, Fraction(0)) + w * hm[k][r]
        return Bracket(b.dim, {t: c for t, c in new.items() if c != 0}, RATIONAL)

    H = h.as_array()
    if not np.isfinite(H).all():
        raise PreconditionError("basis change matrix has a non-finite entry")
    T = act_tensor(b.tensor(), H)
    if not np.isfinite(T).all():
        raise PreconditionError("basis change overflows the structure constants")
    T = cut_tensor(T)
    # nonzero entries in (i, j, k) order, so the keys i < j come out sorted
    new = {(i, j, k): float(T[i, j, k]) for i, j, k in np.argwhere(T).tolist() if i < j}
    return Bracket(b.dim, new, FLOAT)


def cut_tensor(Cp: np.ndarray) -> np.ndarray:
    """The structure tensor of the float bracket act builds from an acted
    tensor Cp: the constants c_ij^k, i < j, at most 1e-14 times the larger
    of 1 and max |Cp| in size (NaN ones too) cut to zero, and the rest
    rebuilt antisymmetric with the bytes of Bracket.tensor.  Cp may carry
    leading stack axes, each slice cut by its own max."""
    top = np.abs(Cp).max(axis=(-3, -2, -1), initial=0.0)
    cut = 1e-14 * np.where(top > 1.0, top, 1.0)   # max(1.0, top), 1.0 for a NaN top
    i = np.arange(Cp.shape[-1])
    above = (i[:, None] < i)[:, :, None]
    upper = np.where(above & (np.abs(Cp) > cut[..., None, None, None]), Cp, 0.0)
    # c - 0.0 above the diagonal, 0.0 - c below it: +0.0 where cut, as in Bracket.tensor
    return upper - np.swapaxes(upper, -3, -2)


def act_tensor(C: np.ndarray, H) -> np.ndarray:
    """Dense action (H . C)[i, j, k] = sum_pqr Hi[p, i] Hi[q, j] H[k, r] C[p, q, r]
    on an (n, n, n) structure tensor, with Hi the inverse of H.

    H may carry leading stack axes; the result then carries them too, and
    each slice is bit-identical to the call on that slice alone.  The
    three products are the flattened contractions a tensordot chain would
    make, in the same order and layout.
    """
    H = np.asarray(H, float)
    return _acted(C, H, np.linalg.inv(H))


def _acted(C: np.ndarray, H: np.ndarray, Hi: np.ndarray) -> np.ndarray:
    """act_tensor(C, H) for a float H whose inverse Hi the caller has."""
    n = C.shape[-1]
    stack = H.shape[:-2]
    out = C.reshape(n * n, n) @ H.mT                                   # [p, q, k]
    out = Hi.mT @ out.reshape(stack + (n, n * n))                      # [i, q, k]
    out = out.reshape(stack + (n, n, n)).mT                            # [i, k, q]
    out = out.reshape(stack + (n * n, n)) @ Hi                         # [i, k, j]
    return out.reshape(stack + (n, n, n)).mT                           # [i, j, k]


def gram_difference(C: np.ndarray, D: np.ndarray = None) -> np.ndarray:
    """T - 2S with T[a,b] = sum_ij C[i,j,a]C[i,j,b] (targets) and S[a,b] =
    sum_jk C[a,j,k]C[b,j,k] (sources): |C|^2 times the moment value, and
    4 times the nilpotent Ricci operator.

    With a second tensor D, the bilinear form B(C, D) whose diagonal
    B(C, C) is the above: T[a,b] = sum_ij C[i,j,a]D[i,j,b] and S[a,b] =
    sum_jk C[a,j,k]D[b,j,k], so B(C, D)^T = B(D, C).  C and D may carry
    leading stack axes, as act_tensor's output does; they broadcast.
    """
    n = C.shape[-1]

    def layouts(X):
        return (X.reshape(X.shape[:-3] + (n * n, n)),   # [(i, j), k]
                X.reshape(X.shape[:-3] + (n, n * n)))   # [a, (j, k)]

    pairs_out, out_pairs = layouts(C)
    d_pairs_out, d_out_pairs = (pairs_out, out_pairs) if D is None else layouts(D)
    # contiguous transposed copies, never views: a product of a matrix
    # with its own transposed view goes to syrk instead of gemm
    targets = np.ascontiguousarray(pairs_out.mT) @ d_pairs_out
    sources = out_pairs @ np.ascontiguousarray(d_out_pairs.mT)
    return targets - 2.0 * sources


def _jacobi_sums(b: Bracket) -> dict:
    """The Jacobi sums as a sparse table: (i, j, k), i < j < k, maps to
    {s: J(i, j, k)_s} for each triple that some product of two constants
    reaches; every other sum is zero.

    J(i, j, k) sums [[e_a, e_b], e_c] = sum_l c_ab^l c_lc^s e_s over the
    even orderings (a, b, c) of (i, j, k), so one pass over the pairs of
    constants (c_ab^l, c_lc^s) with (a, b, c) such an ordering finds them
    all.
    """
    table = b._pair_table()
    zero = Fraction(0) if b.is_rational else 0.0
    sums = {}
    for a, row in enumerate(table):
        for bb, inner in row.items():
            for l, c1 in inner:
                for cc, outer in table[l].items():
                    if cc == a or cc == bb or not _even(a, bb, cc):
                        continue
                    acc = sums.setdefault(tuple(sorted((a, bb, cc))), {})
                    for s, c2 in outer:
                        acc[s] = acc.get(s, zero) + c1 * c2
    return sums


def _even(a, b, c) -> bool:
    """Whether the distinct indices (a, b, c) are a cyclic rotation of
    their sorted order."""
    return (a < b) + (b < c) + (c < a) == 2


def jacobiator(b: Bracket, i: int, j: int, k: int):
    """Cyclic sum [[e_i,e_j],e_k] + [[e_j,e_k],e_i] + [[e_k,e_i],e_j].

    Returns a coordinate vector (Fractions in rational mode, floats otherwise).
    """
    out = [Fraction(0) if b.is_rational else 0.0] * b.dim
    if len({i, j, k}) == 3:
        even = _even(i, j, k)
        for s, x in _jacobi_sums(b).get(tuple(sorted((i, j, k))), {}).items():
            out[s] = x if even else -x
    return out if b.is_rational else np.array(out)


def validate_jacobi(b: Bracket):
    """Largest Jacobi residual over basis triples.

    Exact Fraction in rational mode (0 means a genuine Lie bracket);
    float max norm otherwise.  The residual on a triple is the Euclidean
    norm of the cyclic sum, except in rational mode where the max |entry|
    is used so the result stays rational.
    """
    sums = _jacobi_sums(b).values()
    if b.is_rational:
        return max((abs(x) for acc in sums for x in acc.values()), default=Fraction(0))
    return max((math.hypot(*acc.values()) for acc in sums), default=0.0)


def is_lie(b: Bracket) -> bool:
    """Jacobi check; the float tolerance is 1e-9 relative to max |c|^2."""
    r = validate_jacobi(b)
    if b.is_rational:
        return r == 0
    cmax = max((abs(float(c)) for c in b.constants.values()), default=0.0)
    return float(r) <= 1e-9 * max(1.0, cmax * cmax)


def _require_lie(b: Bracket):
    if not is_lie(b):
        raise PreconditionError("input does not satisfy the Jacobi identity")


def _row_basis(rows, exact: bool, n: int, scale: float) -> list:
    """A basis of the span of rows, as a list of rows: the nonzero rows
    of the exact RREF, or the right singular vectors of the singular
    values above max(shape) * 1e-12 * scale, zero rows counted."""
    if exact:
        red, pivots = _rational.rref([r for r in rows if any(r)])
        return red[: len(pivots)]
    A = np.array(rows, dtype=float).reshape(-1, n)
    if not A.size:
        return []
    _u, sv, vt = np.linalg.svd(A, full_matrices=False)
    d = int((sv > max(A.shape) * scale * 1e-12).sum())
    return vt[:d].tolist()


def lower_central_series(b: Bracket):
    """Dimensions [dim g^0, dim g^1, ...] of g^0 = g, g^{i+1} = [g, g^i].

    The list ends with a 0 exactly when the bracket is nilpotent;
    otherwise it ends at the stabilized dimension.  Non-Lie input is
    rejected.  On float brackets each step's rank is cut against the
    bracket's own scale |mu|: the products [e_i, v] of a step, v running
    over orthonormal rows, have no singular value above it, so once the
    true products vanish their rounding noise stays under the cut, where
    a cut relative to the step's own products would read it as rank.
    The series stops at the first dimension that fails to drop.
    """
    _require_lie(b)
    n = b.dim
    table = b._pair_table()
    zero = Fraction(0) if b.is_rational else 0.0
    current = [[zero + int(i == j) for j in range(n)] for i in range(n)]
    dims = [n]
    scale = 0.0 if b.is_rational else _norm(b)
    while True:
        products = []
        for row in table:
            for vec in current:
                out = [zero] * n   # [e_i, vec], row = table[i]
                for j, terms in row.items():
                    if vec[j]:
                        for k, c in terms:
                            out[k] += c * vec[j]
                products.append(out)
        current = _row_basis(products, b.is_rational, n, scale)
        dims.append(len(current))
        if not current or len(current) >= dims[-2]:
            return dims


def nilpotency_step(b: Bracket):
    """Number of nonzero terms in the lower central series past g itself.

    Returns None when the bracket is not nilpotent.
    """
    dims = lower_central_series(b)
    if dims[-1] != 0:
        return None
    return len(dims) - 1


def _null_space(A: np.ndarray) -> np.ndarray:
    """Orthonormal basis (columns) of the kernel of a float matrix A: the
    right singular vectors past the singular values above
    eps * max(A.shape) * s_max, scipy.linalg.null_space's default cut.
    Only a wide A needs the full vh, and so the full U: a tall one has
    every right singular vector in the reduced SVD, at far less cost."""
    if not np.isfinite(A).all():
        raise PreconditionError("kernel of a matrix with non-finite entries")
    _, s, vh = np.linalg.svd(A, full_matrices=A.shape[0] < A.shape[1])
    tol = np.amax(s, initial=0.0) * np.finfo(s.dtype).eps * max(A.shape)
    return vh[np.count_nonzero(s > tol):].T


def center(b: Bracket) -> np.ndarray:
    """Orthonormal basis (columns) of the center {x : [x, .] = 0}.

    The kernel is computed exactly for rational constants and then
    orthonormalized in floats.
    """
    n = b.dim
    if b.is_rational and b.is_zero():
        return np.eye(n)   # the QR of np.eye has -0.0 below the diagonal
    C = b._exact_tensor() if b.is_rational else b.tensor()
    A = C.transpose(1, 2, 0).reshape(-1, n)  # rows (j, k), columns i
    if b.is_rational:
        rows = [r for r in A.tolist() if any(r)]
        M = np.array(_rational.nullspace(rows, ncols=n), dtype=float).reshape(-1, n).T
    else:
        M = _null_space(A)
    if M.size == 0:
        return np.zeros((n, 0))
    # orthonormalize columns
    q, _ = np.linalg.qr(M)
    return q[:, : M.shape[1]]


def direct_sum(a: Bracket, b: Bracket) -> Bracket:
    """Direct sum of two brackets, second summand shifted past the first."""
    kind = RATIONAL if (a.is_rational and b.is_rational) else FLOAT
    consts = {}
    for (i, j, k), c in a.constants.items():
        consts[(i, j, k)] = c if kind == RATIONAL else float(c)
    off = a.dim
    for (i, j, k), c in b.constants.items():
        consts[(i + off, j + off, k + off)] = c if kind == RATIONAL else float(c)
    return Bracket(a.dim + b.dim, consts, kind)
