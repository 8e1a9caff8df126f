"""Curvature of nilpotent metric Lie algebras and their rank-one
solvable extensions.

Two independent computations are kept side by side.  The Ricci operator
of an extension comes from closed-form blocks, with no curvature tensor,
which one kernel (_ricci_stack) writes into one stack of operators, for
ricci_extension and for the evaluation behind every metric search, on
stacks of transported pairs (_top_eigenvalues), which reads a Bracket
and the factors of certify._metric_factors.  On the diagonal torus,
with factors the diagonals of h = diag(e^a), the pair moves entrywise,
mu_ij^k to e^(a_k - a_i - a_j) mu_ij^k, with no inverse, determinant or
dense action; full factors take the dense products.  The Koszul-formula
oracle evaluates the full curvature tensor of any left-invariant metric
from structure constants alone; it is the independent reference that
the closed forms are tested against.  The Ricci-negativity test (is_ricci_negative) reads
the same formula on the dense transported structure tensor, with no
Bracket in between, and confirms each search witness once: it inverts
the metric factor once, for the derivation and the bracket, and
contracts the Levi-Civita connection straight to the Ricci operator
(_koszul_ricci), with no Riemann tensor.

Convention: the basis is orthonormal and squared norms sum over ordered
index pairs, so a single basis bracket e_i ^ e_j -> e_k has squared norm
2.  This normalization makes the nilpotent Ricci operator equal
(|mu|^2/4) times the trace-normalized moment value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .brackets import (BasisChange, Bracket, _acted, _tensor_support, act, act_tensor,
                       gram_difference)
from .derivations import _matrix_of, derivation_matrix, require_derivation
from .errors import PreconditionError


def ricci_nilpotent(b: Bracket) -> np.ndarray:
    """Ricci operator of the nilpotent metric Lie algebra (orthonormal basis).

    Ric = -1/2 sum_ik C[a,i,k]C[b,i,k] + 1/4 sum_ij C[i,j,a]C[i,j,b]
    = gram_difference(C)/4, the zero matrix for the zero bracket (flat).
    """
    return 0.25 * gram_difference(b.tensor())


def extension_bracket(D, b: Bracket, t: float = 1.0) -> Bracket:
    """Rank-one extension bracket on dim n+1 with the new generator at
    index 0 acting on the nilpotent part as t*D.  A vector D is read as
    its diagonal matrix, and any other shape raises PreconditionError.
    With b rational, and every entry of D and t an int or a Fraction, the
    extension stays exact."""
    n = b.dim
    M = _matrix_of(D, n, object)
    rational = b.is_rational and all(isinstance(v, (int, Fraction)) for v in (*M.flat, t))
    constants: dict = {}
    for (i, j, k), c in b.constants.items():
        constants[(i + 1, j + 1, k + 1)] = c if rational else float(c)
    for i in range(n):
        for j in range(n):
            v = M[j, i]
            if v == 0:
                continue
            if rational:
                constants[(0, i + 1, j + 1)] = Fraction(v) * Fraction(t)
            else:
                constants[(0, i + 1, j + 1)] = float(v) * float(t)
    return Bracket(n + 1, constants, scalar_kind="rational" if rational else "float")


@dataclass(frozen=True)
class MetricParams:
    """Parameters (c, X, h) of an inner product on a rank-one extension.

    Encodes the block lower-triangular frame change with c on the
    extension direction, shear X into the nilpotent part, and h on the
    nilpotent part; every positive-definite inner product arises this
    way with c > 0.  For orthogonal Q, (Q X, Q h) moves the transported
    pair by the isometry Q, so its Ricci spectrum is that of (X, h); the
    metric search therefore takes h lower triangular with a positive
    diagonal.  c, X and h must be finite, c nonzero and h invertible.
    """

    c: float
    X: np.ndarray
    h: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "X", np.asarray(self.X, float))
        object.__setattr__(self, "h", np.asarray(self.h, float))
        if not (math.isfinite(self.c) and np.isfinite(self.X).all()
                and np.isfinite(self.h).all()):
            raise PreconditionError("metric parameters must be finite")
        if self.c == 0:
            raise PreconditionError("scale c must be nonzero")
        n = self.h.shape[0]
        if self.h.shape != (n, n) or self.X.shape != (n,):
            raise PreconditionError("inconsistent metric parameter shapes")
        if abs(np.linalg.det(self.h)) < 1e-300:
            raise PreconditionError("h is singular")

    @staticmethod
    def identity(n: int) -> "MetricParams":
        return MetricParams(1.0, np.zeros(n), np.eye(n))

    def frame_matrix(self) -> np.ndarray:
        """Columns are the frame of the extension (index 0 first) that the
        encoded inner product declares orthonormal: c(f - h^{-1}X) and the
        columns of h^{-1}; transport_metric rewrites the pair in exactly
        this frame."""
        n = self.h.shape[0]
        hinv = np.linalg.inv(self.h)
        out = np.zeros((n + 1, n + 1))
        out[0, 0] = self.c
        out[1:, 0] = -self.c * (hinv @ self.X)
        out[1:, 1:] = hinv
        return out

    def gram(self) -> np.ndarray:
        """Inner product matrix whose orthonormal frame is frame_matrix."""
        F = self.frame_matrix()
        Finv = np.linalg.inv(F)
        return Finv.T @ Finv


def transport_metric(p: MetricParams, D, b: Bracket):
    """Isometric normal form of the pair (D, b) under the metric p.

    Returns (c*h(D - ad(h^{-1}X))h^{-1}, h.b); the assembled Ricci of the
    output pair with the standard metric has the same spectrum as the
    Ricci of (D, b) with the metric p.
    """
    return (_transported_derivation(derivation_matrix(D, b.dim), b.tensor(),
                                    p.c, p.X, p.h),
            act(BasisChange(p.h), b))


def _transported_derivation(M, C: np.ndarray, c, X, h, hinv=None) -> np.ndarray:
    """c h (M - ad Y) h^{-1} with Y = h^{-1}X, on the structure tensor C;
    hinv is h^{-1}, taken here when not given.  X and h may carry the
    same leading stack axes; each slice is bit-identical to the call on
    that slice alone."""
    n = C.shape[0]
    if h.shape[-1] != n:
        raise PreconditionError("metric parameter dimension mismatch")
    if hinv is None:
        hinv = np.linalg.inv(h)
    Y = hinv @ X[..., None]
    # column j of ad Y is [Y, e_j] = sum_i Y_i C[i,j,:]
    adY = (Y.mT @ C.reshape(n, n * n)).reshape(Y.shape[:-2] + (n, n))
    return c * (h @ (M - adY.mT) @ hinv)


def _transported_pair(M, C: np.ndarray, c, X, h):
    """The transported pair (c h (M - ad Y) h^{-1}, h.C) of
    _transported_derivation and act_tensor, with h inverted once for
    both.  Each would take the same inverse of the same h, so the bytes
    are theirs."""
    hinv = np.linalg.inv(h)
    return _transported_derivation(M, C, c, X, h, hinv), _acted(C, h, hinv)


@dataclass(frozen=True)
class RicciBlock:
    """Ricci operator of a rank-one extension, in the basis (a, e_1, ..,
    e_n), and its blocks in closed form: ff the extension-direction
    diagonal entry, fn_row the mixed row and nn the nilpotent block."""

    operator: np.ndarray
    ff = property(lambda self: float(self.operator[0, 0]))
    fn_row = property(lambda self: self.operator[0, 1:])
    nn = property(lambda self: self.operator[1:, 1:])

    def assembled(self) -> np.ndarray:
        return self.operator.copy()

    def eigenvalues(self) -> np.ndarray:
        return np.linalg.eigvalsh(self.operator)

    @property
    def lambda_max(self) -> float:
        return float(self.eigenvalues().max())


def ricci_extension(D, b: Bracket) -> RicciBlock:
    """Block Ricci operator of the rank-one extension of b by D, in the
    orthonormal basis (a, e_1, .., e_n) with ad a = D on the nilpotent part.

    Closed forms: ff = -tr S(D)^2; nn = Ric(b) + [D,D^t]/2 - tr(D) S(D);
    fn_row_i = -tr(S(D) ad e_i), where S(D) is the symmetric part.  They
    follow from Ric = M - B/2 - S(ad H) for a metric Lie algebra (Besse,
    Einstein Manifolds, ch. 7): for nilpotent b the mean-curvature vector
    is H = tr(D) a, so S(ad H) adds nothing to the mixed row.  No
    curvature tensor is built; koszul_oracle is the independent reference
    the tests hold these blocks to.
    """
    M = derivation_matrix(D, b.dim)
    require_derivation(M, b)
    return RicciBlock(_ricci_stack(M[None], b.tensor()[None])[0])


def _ricci_stack(M, C):
    """The Ricci operators of ricci_extension for the (K, n, n) stack of
    derivations M of the (K, n, n, n) structure tensors C, valid only
    where each M[r] is one, written block by block into one (K, n+1, n+1)
    stack.  Every product is taken slice by slice, so a slice never
    depends on the others."""
    K, n = M.shape[:2]
    out = np.empty((K, n + 1, n + 1))
    Mt = M.mT
    S = 0.5 * (M + Mt)
    out[:, 0, 0] = -(S @ S).trace(axis1=1, axis2=2)
    out[:, 1:, 1:] = (0.25 * gram_difference(C) + 0.5 * (M @ Mt - Mt @ M)
                      - M.trace(axis1=1, axis2=2)[:, None, None] * S)
    # tr(S ad e_i) = sum_ab S[a,b] C[i,a,b]; 0 - t rather than -t, so that
    # a vanishing entry is +0.0, not -0.0
    fn = 0.0 - (C.reshape(K, n, n * n) @ S.reshape(K, n * n, 1))[:, :, 0]
    out[:, 0, 1:] = fn
    out[:, 1:, 0] = fn
    return out


@dataclass(frozen=True)
class KoszulReport:
    """Full curvature data of a left-invariant metric from the Koszul formula."""

    riemann: np.ndarray      # R[i,j,k,l] in the orthonormal frame
    sectional: np.ndarray    # sec of the (i,j) frame plane, NaN on the diagonal
    ricci: np.ndarray        # Ricci operator in the ORIGINAL coordinates
    scalar: float


def koszul_oracle(b: Bracket, metric: np.ndarray | None = None) -> KoszulReport:
    """Curvature of the left-invariant metric defined by `metric` (the
    identity by default) on the Lie algebra of b.

    Works for any Lie bracket, solvable or not; `metric` must be finite,
    symmetric and positive definite.  With a non-identity
    metric the bracket is rewritten in a metric-orthonormal frame via
    Cholesky, the columns of (L^T)^-1 for metric = L L^T: the Riemann and
    sectional curvatures are given in that frame, and the Ricci operator
    is conjugated back to the original coordinates (same spectrum either
    way).
    """
    n = b.dim
    C = b.tensor()
    if metric is None:
        V = np.eye(n)
    else:
        G = np.asarray(metric, float)
        if G.shape != (n, n):
            raise PreconditionError("metric shape mismatch")
        if not np.isfinite(G).all():
            raise PreconditionError("metric entries must be finite")
        if np.abs(G - G.T).max() > 1e-10 * max(1.0, np.abs(G).max()):
            raise PreconditionError("metric must be symmetric")
        try:
            L = np.linalg.cholesky(G)
        except np.linalg.LinAlgError as exc:
            raise PreconditionError("metric must be positive definite") from exc
        V = np.linalg.inv(L.T)  # columns: G-orthonormal frame
        C = act_tensor(C, np.linalg.inv(V))
    riemann, ric_frame = _koszul(C)
    sec = np.einsum("ijji->ij", riemann).copy()
    np.fill_diagonal(sec, np.nan)
    ricci = V @ ric_frame @ np.linalg.inv(V)
    return KoszulReport(riemann, sec, ricci, float(np.trace(ric_frame)))


def _connection(C: np.ndarray) -> np.ndarray:
    """Gamma[i,j,k] = <nabla_{e_i} e_j, e_k> of the structure tensor C in
    its orthonormal frame, by the Koszul formula:
    2 Gamma_ijk = C_ijk - C_jki + C_kij."""
    return 0.5 * (C - np.transpose(C, (2, 0, 1)) + np.transpose(C, (1, 2, 0)))


def _koszul(C: np.ndarray):
    """Riemann tensor R[i,j,k,l] = <R(e_i,e_j)e_k, e_l> and the symmetrised
    Ricci operator of the structure tensor C, in its orthonormal frame."""
    gamma = _connection(C)
    term = np.einsum("jkm,iml->ijkl", gamma, gamma)
    riemann = term - np.transpose(term, (1, 0, 2, 3)) - np.einsum(
        "ijm,mkl->ijkl", C, gamma)
    ric = np.einsum("ikli->kl", riemann)
    return riemann, 0.5 * (ric + ric.T)


def _koszul_ricci(C: np.ndarray) -> np.ndarray:
    """The symmetrised Ricci operator of _koszul(C), contracted from the
    connection with no Riemann tensor: with v_m = sum_i Gamma[i,m,i] and
    W[(a,b),l] = Gamma[b,l,a], the trace over i of
    R[i,k,l,i] = sum_m (Gamma[k,l,m] Gamma[i,m,i] - Gamma[i,l,m] Gamma[k,m,i]
    - C[i,k,m] Gamma[m,l,i]) is Gamma v - (Gamma + C^(1 0 2)) W, over the
    flattened index pairs: two matrix products, O(m^4) for an (m, m, m)
    tensor.  The same sums in another order, so the entries agree with
    _koszul's up to rounding."""
    m = C.shape[0]
    gamma = _connection(C)
    v = np.trace(gamma, axis1=0, axis2=2)
    W = np.transpose(gamma, (2, 0, 1)).reshape(m * m, m)
    ric = ((gamma.reshape(m * m, m) @ v).reshape(m, m)
           - (gamma + np.transpose(C, (1, 0, 2))).reshape(m, m * m) @ W)
    return 0.5 * (ric + ric.T)


def is_ricci_negative(D, b: Bracket, p: MetricParams | None = None):
    """Whether the extension of b by D is Ricci negative in the metric p.

    Returns (flag, lambda_max) where lambda_max is the top eigenvalue of
    the Ricci operator that the oracle's Koszul formula gives on the dense
    (n+1)^3 structure tensor of the transported pair (no Bracket is
    built); the flag is lambda_max < -1e-9.  h is inverted once, for the
    transported derivation and for the action on the structure tensor,
    and the Ricci operator is contracted straight from the connection
    (_koszul_ricci), with no (n+1)^4 Riemann tensor.  So the check stays
    independent of the closed-form blocks the search evaluates.
    """
    if p is None:
        p = MetricParams.identity(b.dim)
    E = _extension_tensor(derivation_matrix(D, b.dim), b, p)
    lam = float(np.linalg.eigvalsh(_koszul_ricci(E)).max())
    return lam < -1e-9, lam


def _extension_tensor(M, b: Bracket, p: MetricParams) -> np.ndarray:
    """The dense (n+1, n+1, n+1) structure tensor of the extension of b by
    the derivation matrix M, transported to the orthonormal frame of p,
    with the new generator at index 0."""
    Dn, hC = _transported_pair(M, b.tensor(), p.c, p.X, p.h)
    E = np.zeros((b.dim + 1,) * 3)
    E[0, 1:, 1:] = Dn.T  # [f, e_i] = sum_j Dn[j, i] e_j
    E[1:, 0, 1:] = -Dn.T
    E[1:, 1:, 1:] = hC
    return E


_LOG_SINGULAR = float(np.log(1e-300))


def _clearly_nonsingular(d: np.ndarray) -> bool:
    """Whether every entry of the (K, n) stack of diagonal factors d is
    positive and finite and every row passes the singularity test of
    _top_eigenvalues by a wide margin: n log min d bounds each row's
    log |det| from below, and lying 1 above log(1e-300) puts it beyond
    any rounding of the running sum of logs that numpy's det takes.  A
    negative factor (the search's are e^a) is left to that test."""
    low, high = float(d.min(initial=np.inf)), float(d.max(initial=-np.inf))
    return low > 0.0 and high < np.inf and d.shape[-1] * math.log(low) > _LOG_SINGULAR + 1.0


def _top_eigenvalues(M, b: Bracket, X: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Top Ricci eigenvalue of the extension of b by M under each metric
    (1, X[r], h[r]) of a stack: X is (K, n), and h is (K, n, n), or (K, n)
    for diagonal factors h[r] = diag(h[r]), as certify._metric_factors
    gives them.  b's tensor and nonzero entries are the ones kept on it
    (brackets._tensor_support), read once per bracket.

    This is the evaluation of every metric search.  The kernel of
    ricci_extension (_ricci_stack) writes the closed-form blocks of the
    transported pairs (h(M - ad Y)h^{-1}, h.C) with Y = h^{-1}X, each
    again a derivation with its bracket, into one stack of Ricci
    operators, which one eigvalsh call reads; no curvature tensor is
    built, and the blocks are valid only because the caller has checked
    M with require_derivation.  On the diagonal torus the pair moves
    entrywise (_torus_transport), with no inverse and no matrix product
    with h; full (K, n, n) factors, from centralizer blocks larger than
    1 x 1 or a non-diagonal M, take the dense products, with each factor
    inverted once (_transported_pair).  A row whose h
    is not finite or is singular (|det h| < 1e-300), or whose Ricci
    operator is not finite, reads inf and leaves the other rows as they
    are: the rows that fail the test on h leave the stack.  A stack of
    diagonals that _clearly_nonsingular passes, every factor positive
    and finite and n log min h more than 1 above log(1e-300), skips the
    per-row det of that test, which no row of it could fail; any other
    stack of diagonals takes det on its diagonal matrices, as full
    factors do.  All of it runs under one np.errstate.  Each row is
    bit-identical to the same row evaluated alone, and a row of
    diagonals to the same row given as the diagonal matrix.
    """
    C = b.tensor()
    torus = h.ndim == 2
    lam = None
    with np.errstate(all="ignore"):
        if not (torus and _clearly_nonsingular(h)):
            full = h[:, :, None] * np.eye(h.shape[1]) if torus else h
            ok = np.isfinite(full).all(axis=(1, 2))
            ok[ok] = np.abs(np.linalg.det(full[ok])) >= 1e-300
            if not ok.all():
                lam = np.full(len(h), np.inf)
                X, h = X[ok], h[ok]
        ric = _ricci_stack(*(_torus_transport(M, C, X, h, _tensor_support(b)) if torus else
                             _transported_pair(M, C, 1.0, X, h)))
        if np.isfinite(ric).all():
            top = np.linalg.eigvalsh(ric)[:, -1]
        else:
            finite = np.isfinite(ric).all(axis=(1, 2))
            top = np.full(len(ric), np.inf)
            top[finite] = np.linalg.eigvalsh(ric[finite])[:, -1]
    if lam is None:
        return top
    lam[ok] = top
    return lam


def _torus_transport(M, C: np.ndarray, X: np.ndarray, d: np.ndarray, support):
    """The transported pair (h(M - ad Y)h^{-1}, h.C) with Y = h^{-1}X for
    the diagonal factors h = diag(d[r]) of a (K, n) stack, entrywise:
    mu_ij^k moves to d_k mu_ij^k / (d_i d_j).  `support` is the nonzero
    entries of C (brackets._tensor_support).

    The products are those of _transported_derivation and act_tensor on
    diag(d), in their order, less the terms with a zero factor of h; only
    the nonzero structure constants move, and the others stay +0.0.  An
    exact 1/d is the inverse LAPACK returns for a diagonal matrix.  A
    matrix product sums from +0.0, so it never returns -0.0; adding 0.0
    turns a -0.0 into +0.0 as well.  So each entry is bit-identical to
    the dense one wherever that one is finite; where it is not, a
    non-finite entry is left in both, and the row reads inf either way.
    """
    n = C.shape[-1]
    dinv = 1.0 / d
    Y = dinv * X + 0.0
    # column j of ad Y is [Y, e_j] = sum_i Y_i C[i,j,:], the dense product
    adY = (Y[:, None, :] @ C.reshape(n, n * n)).reshape(-1, n, n)
    Dn = d[:, :, None] * (M - adY.mT) * dinv[:, None, :] + 0.0
    i, j, k, c = support
    hC = np.zeros((len(d), n, n, n))
    hC[:, i, j, k] = c * d.take(k, 1) * dinv.take(i, 1) * dinv.take(j, 1) + 0.0
    return Dn, hC
