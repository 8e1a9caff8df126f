"""Reference computations the benchmark checks rnlie's outputs against.

Nothing here imports rnlie.  Each function is written from the
mathematics it names, so that a check comparing rnlie with it compares
two computations made apart.  Brackets are dense structure tensors
C[i, j, k] with [e_i, e_j] = sum_k C[i, j, k] e_k (antisymmetric in i, j);
exact quantities are Fractions.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

import numpy as np

WITNESS_THRESHOLD = -1e-6
MARGIN_THRESHOLD = Fraction(1, 10_000_000)


class CheckError(AssertionError):
    """An rnlie output disagrees with its reference."""


def tensor(dim, constants):
    """Dense antisymmetric structure tensor from {(i, j, k): c} with i < j."""
    C = np.zeros((dim, dim, dim))
    for (i, j, k), c in constants.items():
        C[i, j, k] += float(c)
        C[j, i, k] -= float(c)
    return C


def heisenberg_constants(m):
    """[e_{2i-1}, e_{2i}] = e_m for the Heisenberg algebra of dimension m."""
    return {(2 * i, 2 * i + 1, m - 1): 1 for i in range((m - 1) // 2)}


def filiform_constants(n):
    """[e_1, e_i] = e_{i+1} for 2 <= i <= n - 1."""
    return {(0, i, i + 1): 1 for i in range(1, n - 1)}


def tricky5_constants():
    """[e1, e2] = e3 + e4, [e1, e3] = e5, [e1, e4] = e5."""
    return {(0, 1, 2): 1, (0, 1, 3): 1, (0, 2, 4): 1, (0, 3, 4): 1}


def is_diagonal_derivation(diag, constants):
    """A diagonal map is a derivation iff d_k = d_i + d_j on every bracket."""
    return all(diag[k] == diag[i] + diag[j] for (i, j, k) in constants)


# -- Ricci operator (Besse, Einstein Manifolds, 7.38) -------------------

def extension_tensor(C, D):
    """Rank-one extension R f + n with ad f = D, f at index 0."""
    n = C.shape[0]
    E = np.zeros((n + 1, n + 1, n + 1))
    E[1:, 1:, 1:] = C
    D = np.asarray(D, dtype=float)
    # [f, e_i] = D e_i = sum_j D[j, i] e_j
    E[0, 1:, 1:] = D.T
    E[1:, 0, 1:] = -D.T
    return E


def ricci_operator(C, gram=None):
    """Ricci operator of the metric Lie algebra (C, gram), written in an
    orthonormal frame, from the formula

        Ric(X, Y) = -1/2 sum_i <[X, e_i], [Y, e_i]> - 1/2 B(X, Y)
                    + 1/4 sum_ij <[e_i, e_j], X> <[e_i, e_j], Y>
                    - 1/2 (<[H, X], Y> + <[H, Y], X>)

    with B the Killing form and H the mean curvature vector,
    <H, X> = tr ad X.  Its spectrum does not depend on the frame.
    """
    if gram is not None:
        L = np.linalg.cholesky(np.asarray(gram, dtype=float))
        V = np.linalg.inv(L.T)  # columns: a gram-orthonormal frame
        Vinv = np.linalg.inv(V)
        C = np.einsum("ia,jb,ijk,ck->abc", V, V, C, Vinv)
    first = np.einsum("aic,bic->ab", C, C)
    killing = np.einsum("adc,bcd->ab", C, C)
    third = np.einsum("ija,ijb->ab", C, C)
    H = np.einsum("acc->a", C)
    S = np.einsum("h,hab->ab", H, C)
    ric = -0.5 * first - 0.5 * killing + 0.25 * third - 0.5 * (S + S.T)
    return 0.5 * (ric + ric.T)


def witness_gram(c, X, h):
    """Gram matrix of the extension metric whose orthonormal frame is
    c (f - h^-1 X) together with the columns of h^-1 (f first)."""
    h = np.asarray(h, dtype=float)
    n = h.shape[0]
    hinv = np.linalg.inv(h)
    F = np.zeros((n + 1, n + 1))
    F[0, 0] = c
    F[1:, 0] = -c * (hinv @ np.asarray(X, dtype=float))
    F[1:, 1:] = hinv
    Finv = np.linalg.inv(F)
    return Finv.T @ Finv


def extension_lambda_max(C, D, c=1.0, X=None, h=None):
    """Top Ricci eigenvalue of the extension of C by D in the metric
    (c, X, h); the identity metric when X and h are omitted."""
    n = C.shape[0]
    X = np.zeros(n) if X is None else X
    h = np.eye(n) if h is None else h
    ric = ricci_operator(extension_tensor(C, D), witness_gram(c, X, h))
    return float(np.linalg.eigvalsh(ric).max())


def check_witness(C, D, c, X, h, reported):
    """A witness must make the extension Ricci negative below -1e-6, by
    this reference, and agree with the eigenvalue rnlie reported."""
    lam = extension_lambda_max(C, D, c, X, h)
    if not lam < WITNESS_THRESHOLD:
        raise CheckError(f"witness lambda_max {lam:.3e} is not below -1e-6")
    if abs(lam - reported) > 1e-7 * max(1.0, abs(lam)):
        raise CheckError(f"witness lambda_max {reported!r} disagrees with "
                         f"the reference {lam!r}")
    return lam


# -- centre and the necessary condition ---------------------------------

def _nullspace(rows, ncols):
    """Exact null space of Fraction rows, one basis vector per free column."""
    rows = [list(map(Fraction, r)) for r in rows]
    pivots = []
    r = 0
    for col in range(ncols):
        piv = next((i for i in range(r, len(rows)) if rows[i][col] != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        lead = rows[r][col]
        rows[r] = [v / lead for v in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][col] != 0:
                f = rows[i][col]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(col)
        r += 1
    basis = []
    for free in (c for c in range(ncols) if c not in pivots):
        v = [Fraction(0)] * ncols
        v[free] = Fraction(1)
        for i, pc in enumerate(pivots):
            v[pc] = -rows[i][free]
        basis.append(v)
    return basis


def center(dim, constants):
    """Exact basis of {x : [x, e_j] = 0 for all j}, from the ad matrices."""
    ad = [[[Fraction(0)] * dim for _ in range(dim)] for _ in range(dim)]
    for (i, j, k), c in constants.items():
        ad[i][k][j] += Fraction(c)   # (ad e_i)_{kj} = C[i, j, k]
        ad[j][k][i] -= Fraction(c)
    # x in the centre iff sum_i x_i (ad e_i)_{kj} = 0 for every (k, j)
    rows = [[ad[i][k][j] for i in range(dim)]
            for k in range(dim) for j in range(dim)]
    return _nullspace(rows, dim)


def necessary_condition(diag, dim, constants):
    """tr D > 0 and D positive on the centre, for a diagonal derivation.

    The centre of a derivation is D-invariant; with D diagonal the
    restriction is read off by solving D z = Z y in the centre basis.
    """
    diag = [Fraction(x) for x in diag]
    if sum(diag) <= 0:
        return False
    Z = center(dim, constants)
    if not Z:
        return True
    A = np.array([[float(v) for v in z] for z in Z]).T
    DZ = np.diag([float(x) for x in diag]) @ A
    restricted, *_ = np.linalg.lstsq(A, DZ, rcond=None)
    return float(np.linalg.eigvals(restricted).real.min()) > 0


# -- heisenberg(2k+1): trace-1 section and membership -------------------

def section_gap(x, s):
    """f(x) = max(0, -x, x - s), the distance from x to [0, s]."""
    return max(Fraction(0), -x, x - s)


def heisenberg_section_vertices(k):
    """Diagonals of the vertices of the trace-1 section of heisenberg(2k+1).

    With T = 1/(k+1) a trace-1 derivation is diag(a_1, T - a_1, ...,
    a_k, T - a_k, T), and the section is sum f(a_i) <= T: the cube
    [0, T]^k grown by an L1 ball of radius T.  Its k 2^k vertices are the
    cube's corners, each moved outward by T along one axis.
    """
    T = Fraction(1, k + 1)
    out = set()
    for corner in itertools.product((Fraction(0), T), repeat=k):
        for axis in range(k):
            a = list(corner)
            a[axis] = a[axis] - T if a[axis] == 0 else a[axis] + T
            out.add(heisenberg_diagonal(a, T))
    return out


def heisenberg_diagonal(a, s):
    """diag(a_1, s - a_1, ..., a_k, s - a_k, s) as a tuple of Fractions."""
    d = []
    for x in a:
        d += [Fraction(x), Fraction(s) - Fraction(x)]
    return tuple(d + [Fraction(s)])


def heisenberg_in_cone(diag):
    """Exact membership in the open cone for a torus diagonal of
    heisenberg(2k+1): s > 0 and sum f_s(a_i) < s, s the centre entry."""
    diag = [Fraction(x) for x in diag]
    s = diag[-1]
    if any(diag[2 * i] + diag[2 * i + 1] != s for i in range(len(diag) // 2)):
        raise CheckError("not a diagonal derivation of the Heisenberg algebra")
    return s > 0 and sum(section_gap(diag[2 * i], s)
                         for i in range(len(diag) // 2)) < s


def check_section(vertex_diagonals, k):
    """The exact trace-1 section of heisenberg(2k+1) is the closed form."""
    got = {tuple(Fraction(x) for x in v) for v in vertex_diagonals}
    want = heisenberg_section_vertices(k)
    if len(vertex_diagonals) != len(want) or got != want:
        raise CheckError(f"heisenberg({2 * k + 1}) section vertices differ from "
                         f"the closed form: extra {sorted(got - want)}, "
                         f"missing {sorted(want - got)}")


def h3_margin(a, b):
    """NiceLP margin of diag(a, b, a + b) on heisenberg(3).

    max over c >= 0 of min(a + c, b + c, a + b - c): the last two meet
    at c = max/2, so eps = min(a, b) + max(a, b)/2 when max(a, b) >= 0,
    and a + b (at c = 0) otherwise.
    """
    a, b = Fraction(a), Fraction(b)
    lo, hi = min(a, b), max(a, b)
    return lo + hi / 2 if hi >= 0 else a + b


def check_margin(got, a, b):
    want = h3_margin(a, b)
    if Fraction(got) != want:
        raise CheckError(f"margin of diag({a}, {b}, {a + b}) is {got}, "
                         f"closed form {want}")


# -- moment values and sampled certificates -----------------------------

def acted_tensor(C, g):
    """(g . mu)(x, y) = g mu(g^-1 x, g^-1 y) as a dense tensor."""
    gi = np.linalg.inv(g)
    out = np.tensordot(gi, C, axes=([0], [0]))           # [i, q, r]
    out = np.tensordot(gi, out, axes=([0], [1]))         # [j, i, r]
    out = np.tensordot(out, g, axes=([2], [1]))          # [j, i, k]
    return out.transpose(1, 0, 2)


def moment_value(C):
    """m = (T - 2 S) / |mu|^2, with T the target and S the source gram
    matrices of the structure constants."""
    T = np.einsum("ija,ijb->ab", C, C)
    S = np.einsum("ajk,bjk->ab", C, C)
    return (T - 2.0 * S) / float(np.sum(C * C))


def check_moment_point(C, g, matrix, tol=1e-9):
    """A sampled moment value recomputes from the acted tensor and lies
    on the diagonal slice."""
    ref = moment_value(acted_tensor(C, np.asarray(g, dtype=float)))
    scale = max(1.0, float(np.abs(ref).max()))
    if np.abs(ref - matrix).max() > tol * scale:
        raise CheckError("sampled moment value differs from the reference by "
                         f"{np.abs(ref - matrix).max():.3e}")
    off = ref - np.diag(np.diag(ref))
    if off.size and np.abs(off).max() > 1e-8 * scale:
        raise CheckError("sampled moment value is off the diagonal slice")
    return ref


def check_sampled_certificate(diag, points, coefficients, margin):
    """Exact check of D - sum c_i sort(p_i) >= margin > 1e-7 entrywise.

    `points` are the sampled diagonals as floats, taken exactly; each is
    sorted within the blocks of equal D entries.  `coefficients` maps a
    sample index to a Fraction.
    """
    diag = [Fraction(x) for x in diag]
    margin = Fraction(margin)
    if margin <= MARGIN_THRESHOLD:
        raise CheckError(f"certificate margin {margin} is not above 1e-7")
    blocks = {}
    for i, v in enumerate(diag):
        blocks.setdefault(v, []).append(i)
    residual = list(diag)
    for idx, coeff in coefficients.items():
        coeff = Fraction(coeff)
        if coeff < 0:
            raise CheckError(f"negative certificate coefficient {coeff}")
        p = [Fraction(float(x)) for x in points[idx]]
        for blk in blocks.values():
            for i, v in zip(blk, sorted(p[i] for i in blk)):
                p[i] = v
        residual = [r - coeff * x for r, x in zip(residual, p)]
    if min(residual) < margin:
        raise CheckError(f"certificate leaves {min(residual)} < margin {margin}")
