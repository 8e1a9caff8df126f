"""Certificates of Ricci negativity for rank-one solvable extensions.

Two routes are implemented.  The linear-programming route expresses a
diagonal derivation as a positive combination of diagonal moment
values plus a strictly positive diagonal remainder; any such
expression is a sound certificate.  The search route looks for a
metric directly, by derivative-free descent over the metric
parameters, and its failures are always inconclusive rather than
refutations.
"""

from __future__ import annotations

import functools
import itertools
import math
import numbers
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from ._exactlp import solve_lp
from .brackets import Bracket, center
from .curvature import MetricParams, _top_eigenvalues, is_ricci_negative
from .derivations import (_is_diagonal, _positive_trace, derivation_matrix,
                          diagonal_derivation, require_derivation)
from .errors import NumericalError, PreconditionError
from .moment import (DERIVATION_CENTRALIZER, TORUS_CENTRALIZER, OrbitSample,
                     _metric_factors, _metric_layout, centralizer_blocks,
                     nice_basis_check, weight_vector)
from .rng import default_seed, generator, require_seed

MARGIN_THRESHOLD = Fraction(1, 10_000_000)  # 1e-7
SAMPLING_SLACK = Fraction(1, 10**9)
NEGATIVITY_THRESHOLD = -1e-6
DEFAULT_BUDGET = 10_000


@dataclass(frozen=True, eq=False)
class SrnCertificate:
    """Nonnegative coefficients writing D as margin-positive over the
    certificate's moment points.

    `coefficients` maps a weight triple (NiceLP) or a sample index
    (SampledLP) to its coefficient; subtracting the weighted moment
    points from D leaves every diagonal entry at least `margin`, which
    is strictly positive.
    """

    coefficients: dict
    margin: object
    method: str

    def __post_init__(self):
        if self.margin <= 0:
            raise PreconditionError("a certificate needs a positive margin")
        if any(v < 0 for v in self.coefficients.values()):
            raise PreconditionError("certificate coefficients must be >= 0")


@dataclass(frozen=True, eq=False)
class Infeasible:
    """The exact margin came out at or below MARGIN_THRESHOLD (1e-7);
    `dual` certifies the bound.

    A margin at or below zero refutes this particular sufficient test
    only; a positive margin below the threshold refutes nothing.  For
    tori that are not multiplicity-free the diagonal image can be
    strictly larger than the polytope the test uses, so srn-ness is not
    ruled out.
    """

    margin: object
    dual: tuple
    method: str


@dataclass(frozen=True, eq=False)
class Unknown:
    """Sampled test inconclusive: the sample may simply miss the part
    of the image a certificate would need."""

    margin: object
    reason: str


@dataclass(frozen=True, eq=False)
class RnWitness:
    params: MetricParams
    lambda_max: float


@dataclass(frozen=True, eq=False)
class SearchFailure:
    """Budget exhausted without a witness; never a refutation."""

    lambda_best: float
    params: MetricParams
    evaluations: int


def _margin_lp(d_entries, points, cap=None, mass_penalty=0):
    """Maximize eps - penalty*sum(coeffs) with coeffs >= 0 and
    D - sum coeff*point >= eps entrywise.

    `points` is a list of diagonal vectors.  Entries go to solve_lp as
    they are, ints, Fractions or floats, and it reads each one exactly.
    The penalty keeps a solve over measured points honest: a combination
    that only works by scaling measurement noise up with enormous
    coefficients scores below zero instead of above the margin
    threshold.  Returns the LpResult of the exact solve; variables are
    (eps, coeff_0, ..).
    """
    a_ub = [[1] + [p[r] for p in points] for r in range(len(d_entries))]
    b_ub = list(d_entries)
    if cap is not None:
        a_ub.append([1] + [0] * len(points))
        b_ub.append(cap)
    nonneg = [False] + [True] * len(points)
    return solve_lp([1] + [-mass_penalty] * len(points),
                    a_ub=a_ub, b_ub=b_ub, nonneg=nonneg)


def certify_srn_nice(D, b: Bracket):
    """Margin test over the weight matrices of a nice basis.

    Maximizes eps subject to coeff_a >= 0 and D - sum coeff_a F_a >= eps
    entrywise, exactly.  A margin above 1e-7 certifies that some metric
    makes the extension Ricci negative with D symmetric; the
    Infeasible branch only refutes this sufficient test (it is exact
    for multiplicity-free tori, an under-approximation otherwise).  D
    must pass diagonal_derivation, and b must have rational constants.
    """
    report = nice_basis_check(b)
    if not report.ok:
        raise PreconditionError(
            "the margin test over weight matrices needs a nice basis; "
            f"violations: {report.multiple_targets + report.overlapping_pairs}")
    if not b.is_rational:
        raise PreconditionError("the margin test needs rational constants")
    diag = diagonal_derivation(D, b)
    if not _positive_trace(diag):
        raise PreconditionError("certification needs trace(D) > 0")
    return _nice_margin(diag, b)


def _nice_margin(diag, b: Bracket):
    """The exact margin program of certify_srn_nice on the diagonal
    entries of a derivation its callers have already checked."""
    triples = tuple(sorted(b.constants))
    points = [weight_vector(t, b.dim) for t in triples]
    res = _margin_lp(diag, points)
    if res.status != "optimal":
        raise NumericalError(f"margin program ended {res.status}")
    eps = res.objective
    if eps > MARGIN_THRESHOLD:
        coeffs = {t: res.x[1 + i] for i, t in enumerate(triples)}
        return SrnCertificate(coeffs, eps, "NiceLP")
    return Infeasible(eps, tuple(res.dual_ub or ()), "NiceLP")


def certify_srn_sampled(D, b: Bracket, sample: OrbitSample):
    """Margin test over sampled diagonal moment values.

    Success is sound.  D must pass diagonal_derivation: the extension
    by anything else is no Lie algebra, and a margin over it would prove
    nothing.  The sample must have been drawn for b (OrbitSample.verify
    recomputes every moment value from its group element), every
    sampled group element must commute with D and every sampled moment
    value must lie on the diagonal slice of the orbit; both gates run on
    the sample's (K, n, n) stacks, the commutation gate first, and refuse
    the sample if any point fails.  Each diagonal is then moved into a
    fixed fundamental domain by sorting its entries within blocks of
    equal D-eigenvalue, a stable sort of the stack's columns per block,
    and handed to the margin program as Python floats; the permutations
    doing so commute with D, so the sorted vector is again a genuine
    point of the slice.  The sort is load-bearing: the attainable
    diagonal set is convex within one domain but its union over domains
    need not be, and conic combinations that mix domains can overshoot
    it (for paired directions the unsorted test can certify derivations
    that only sit on the boundary).  Failure is
    only Unknown, since the finite sample can miss the region a
    certificate would use.  The margin variable is capped so the
    program stays bounded even when combinations of sampled points are
    entrywise negative.
    """
    if not isinstance(sample, OrbitSample) or not sample.points:
        raise PreconditionError("need a nonempty orbit sample")
    if sample.group_tag not in (DERIVATION_CENTRALIZER, TORUS_CENTRALIZER):
        raise PreconditionError(
            "sampled certification wants a centralizer orbit sample")
    diag = diagonal_derivation(D, b)
    if not _positive_trace(diag):
        raise PreconditionError("certification needs trace(D) > 0")
    sample.verify(b)
    d = np.array([float(v) for v in diag])
    dscale = max(1.0, float(np.abs(d).max()))
    # g D - D g entrywise, the bits of the products with diag(d)
    G = np.array([g for g, _ in sample.points])
    if (np.abs(G * d - d[:, None] * G).max(axis=(-2, -1)) > 1e-6 * dscale).any():
        raise PreconditionError(
            "sample does not commute with this derivation")
    M = np.array([mv.matrix for _, mv in sample.points], dtype=float)
    at = np.arange(b.dim)
    P, off = M[:, at, at], np.abs(M)
    scale = np.maximum(1.0, off.max(axis=(-2, -1)))
    off[:, at, at] = 0.0
    if (off.max(axis=(-2, -1)) > 1e-8 * scale).any():
        raise PreconditionError(
            "sample moment values must lie on the diagonal slice")
    for blk in centralizer_blocks(diag):
        if len(blk) > 1:
            blk = list(blk)
            P[:, blk] = np.sort(P[:, blk], axis=-1, kind="stable")
    points = P.tolist()
    cap = 1 + 2 * max(abs(Fraction(v)) for v in diag)
    res = _margin_lp(diag, points, cap=cap, mass_penalty=SAMPLING_SLACK)
    if res.status != "optimal":
        raise NumericalError(f"margin program ended {res.status}")
    # the objective already discounts the coefficient mass by the sample
    # tolerance, so it is the margin the measured points can support
    margin = res.objective
    if margin > MARGIN_THRESHOLD:
        coeffs = {i: res.x[1 + i] for i in range(len(points))}
        return SrnCertificate(coeffs, margin, "SampledLP")
    return Unknown(margin, "no certificate over this sample; enlarge or reseed")


def necessary_condition(D, b: Bracket) -> bool:
    """The one general obstruction: D or -D has positive trace and a
    positive real spectrum on the center.  The sign is free because the
    extension by -D is the same Lie algebra as the extension by D (send
    the new generator H to -H)."""
    M = derivation_matrix(D, b.dim)
    if float(np.trace(M)) < 0:
        M = -M
    if float(np.trace(M)) <= 1e-10:
        return False
    Z = center(b)
    if Z.shape[1] == 0:
        return True
    restricted = Z.T @ M @ Z
    return float(np.linalg.eigvals(restricted).real.min()) > 1e-10


def _scaling_line(blocks, n):
    """The 50 search points of the pure-scaling line h = e^s, s from 0.25
    to 25: s at the diagonal offsets of _metric_layout and +0.0 at every
    other coordinate, X included.  Read-only, since every search with
    these blocks shares it."""
    return _shared_scaling_line(tuple(blocks), n)


@functools.lru_cache(maxsize=64)
def _shared_scaling_line(blocks, n):
    (_, _, diagonal), _, width = _metric_layout(blocks)
    line = np.zeros((50, width + n))
    line[:, diagonal] = np.linspace(0.25, 25.0, 50)[:, None]
    line.setflags(write=False)
    return line


def search_rn_metric(D, b: Bracket, budget: int = DEFAULT_BUDGET, seed=None):
    """Derivative-free search for a metric with negative Ricci.

    Minimizes the top Ricci eigenvalue over metric parameters: the
    scale is pinned to 1, the shear X ranges over the nilpotent part,
    and h is lower triangular with a positive diagonal e^a, block
    diagonal on the centralizer blocks when D is diagonal (one block
    otherwise): _metric_factors, which reaches every metric of those
    blocks.  Phases: the identity metric, a pure-scaling line, then
    restarted first-improvement compass descent, each restart from the
    best point so far during the first third of the budget and from a
    seeded random point after it.  Returns the first witness below
    -1e-6, or the best value found once `budget` evaluations, an int of
    at least 1, run out.

    D must pass the Leibniz gate of ricci_extension, checked once here:
    the extension by anything else is no Lie algebra, and a search over
    it would decide nothing.  The gate is also what lets every evaluation
    read the closed-form Ricci blocks of the transported pair, with no
    curvature tensor.  When every centralizer block is 1 x 1 the factors
    are the diagonals e^a, and the evaluator transports the pair
    entrywise on the diagonal torus.  Otherwise the factors are full
    matrices and take the dense transport.

    Points are evaluated as stacks, and each row of a stack reads the
    same bits as it would alone.  The identity metric and the 50 points
    of the scaling line are one stack of 51 rows, cut to the budget, so
    a search that ends on the line makes one evaluator call.  A descent
    sends the trials it will probably take next as one stack
    (_compass_descent) and takes its values up to its first improvement,
    so the rows past it are computed but never taken.  The random
    restarts do not depend on each other, so they run in lockstep, up to
    32 in the order of their draws, each round evaluating all their
    pending stacks as one (_lockstep).  The values are then taken in the
    order a one-point-at-a-time search would make them, descent after
    descent in draw order, up to the budget or the first value below
    -1e-6, so the result is that search's to the byte.  A descent hands
    over only how many values it consumed and its records, the values
    that set its running minimum, with their points: a value below the
    best so far is always a record, so the records decide the best
    (_Tally.take).  `evaluations` counts the values taken; rows that a
    descent in flight computed past that point do not count.  A
    witness is confirmed by is_ricci_negative, the independent
    Koszul-formula evaluation, before it is returned.  The seeded
    generator is made at the first random start, so a search that ends
    before one never makes it; the seed is still checked against
    Philox's key range at the start.

    What depends only on the shape is made once and shared, read-only,
    by every search of that shape: the scaling line, for each tuple of
    centralizer blocks and n (_scaling_line), and the sweep's move matrix,
    for each number of coordinates (_sweep_moves).  The stacks of moves
    at each step and span are cached per search only (_sweep_offsets).
    The bracket keeps its own structure tensor and nonzero entries, so
    the searches on one bracket build them once.
    """
    if isinstance(budget, bool) or not isinstance(budget, numbers.Integral) or budget < 1:
        raise PreconditionError(f"budget must be an int of at least 1, not {budget!r}")
    budget = int(budget)
    n = b.dim
    M = derivation_matrix(D, n)
    require_derivation(M, b)
    seed = default_seed() if seed is None else int(seed)
    require_seed(seed)
    rng = None

    if _is_diagonal(M):
        blocks = tuple(centralizer_blocks(np.diag(M)))
    else:
        blocks = (tuple(range(n)),)
    asize = _metric_layout(blocks)[2]
    dim = asize + n
    tally = _Tally(budget, dim)

    def evaluate(rows):
        A = rows[:, :asize]
        if asize == n:
            # 1 x 1 blocks: the diagonals _metric_factors would place
            with np.errstate(all="ignore"):
                h = np.exp(A)
        else:
            h = _metric_factors(A, blocks, n)
        return _top_eigenvalues(M, b, rows[:, asize:], h)

    def random_start():
        nonlocal rng
        if rng is None:
            rng = generator(seed, 21)
        return 0.6 * rng.standard_normal(dim)

    # the identity metric, then the pure-scaling line h = e^s, as one
    # stack: of its values up to the first below -1e-6, only the lowest
    # (the first of equals) can set the best
    rows = np.concatenate([np.zeros((1, dim)), _scaling_line(blocks, n)])[:budget]
    values = evaluate(rows)
    below = np.flatnonzero(values < NEGATIVITY_THRESHOLD)
    count = int(below[0]) + 1 if len(below) else len(values)
    at = int(values[:count].argmin())
    tally.take(count, [(at, float(values[at]), rows[at])])

    offsets = _sweep_offsets(dim)
    while not tally.done():
        if tally.evals < budget // 3:
            # one descent at a time: each restarts from the best point so far
            x = tally.best_x.copy() if tally.best < math.inf else random_start()
            _lockstep([x], 1, evaluate, tally, offsets)
        else:
            starts = (random_start() for _ in itertools.count())
            _lockstep(starts, _LOCKSTEP_WINDOW, evaluate, tally, offsets)

    x = tally.best_x
    params = MetricParams(1.0, x[asize:], _metric_factors(x[None, :asize], blocks, n)[0])
    if tally.best < NEGATIVITY_THRESHOLD:
        flag, lam = is_ricci_negative(M, b, params)
        if flag and lam < NEGATIVITY_THRESHOLD:
            return RnWitness(params, lam)
    return SearchFailure(tally.best, params, tally.evals)


class _Tally:
    """The values a search has taken under its budget: how many (evals),
    the lowest (best) and its point (best_x)."""

    def __init__(self, budget, dim):
        self.budget, self.evals, self.best, self.best_x = budget, 0, math.inf, np.zeros(dim)

    def done(self):
        return self.best < NEGATIVITY_THRESHOLD or self.evals >= self.budget

    def take(self, count, records):
        """Take the next `count` values in order, one evaluation each,
        until done() holds.  `records` lists (position, value, point), in
        order, of each that set the running minimum of the values before
        it: any value below the best is one, so the records decide the
        best and where the first value below -1e-6 stops.  Returns done()."""
        count = min(count, self.budget - self.evals)
        for at, lam, x in records:
            if at >= count:
                break
            if lam < self.best:
                self.best, self.best_x = lam, x
                if lam < NEGATIVITY_THRESHOLD:
                    count = at + 1
                    break
        self.evals += count
        return self.done()


# the most descents in flight at once.  At the default budget the
# admission rule of _lockstep binds first (a window of 32, 64 or none
# gives the same calls on the exhaust benchmark's searches), so this
# only bounds a round's memory at large budgets
_LOCKSTEP_WINDOW = 32


def _lockstep(starts, window, evaluate, tally, offsets):
    """Compass descents from `starts`, in draw order, up to `window` of
    them in flight.  Each round evaluates the pending stacks of the
    descents in flight as one stack and sends each descent its values.
    Each descent, its stacks built from `offsets` (_sweep_offsets),
    then hands tally.take the number of values it consumed and its
    records, descent after descent in draw order, until the search is
    done.  With a window above one, a descent polls the next
    coordinate's pair alone after an improvement, and the next two
    coordinates' pairs after a stack that finds nothing, where a lone
    descent sends the rest of the sweep (_compass_descent): in a shared
    evaluator call a small stack costs only its rows, where a lone
    descent would pay the call's fixed cost for each.

    A descent is cut where its values would run past the budget, since
    the values kept by the descents ahead of it come first, and after a
    value below the negativity threshold, where take stops at the latest;
    no descent after a cut one is advanced or started.  Another descent
    starts only while the ones in flight, each counted at its length so
    far or at the mean length of those finished, whichever is longer,
    leave room in the budget; until one has finished, one runs alone.
    So a search whose descents outlast its budget computes few rows that
    never count.  Returns when the search is done or the starts run out.
    """
    starts = iter(starts)
    flight = []
    lengths = []
    while True:
        room = tally.budget - tally.evals
        stacks = []
        for k, d in enumerate(flight):
            room -= d.fresh
            if room <= 0 or d.low < NEGATIVITY_THRESHOLD:
                del flight[k + 1:]
                room = 0
                break
            if d.pending is not None:
                stacks.append((d, d.pending[:room]))
        mean = sum(lengths) / len(lengths) if lengths else math.inf
        while (room > 0 and len(flight) < window
               and tally.budget - tally.evals > sum(max(d.count, mean) for d in flight)):
            x = next(starts, None)
            if x is None:
                break
            d = _Descent(x, window > 1, offsets)
            flight.append(d)
            stacks.append((d, d.pending[:room]))
        if not stacks:
            return
        values = evaluate(stacks[0][1] if len(stacks) == 1
                          else np.concatenate([rows for _, rows in stacks]))
        at = 0
        for d, rows in stacks:
            d.send(rows, values[at:at + len(rows)])
            at += len(rows)
        while flight:
            d = flight[0]
            if tally.take(d.fresh, d.records):
                return
            d.fresh, d.records = 0, []
            if d.pending is not None:
                break
            lengths.append(flight.pop(0).count)


class _Descent:
    """One compass descent in flight: the stack it waits on (None once
    it has stopped), how many values it consumed (count), and of those
    the search has not taken yet, how many (fresh) and the records:
    (position among them, value, a copy of the point) of each that set
    the descent's running minimum `low`, the only values kept."""

    def __init__(self, x, pairs, offsets):
        self.steps = _compass_descent(x, pairs, offsets)
        self.pending = next(self.steps)[1]
        self.count = self.fresh = 0
        self.records = []
        self.low = math.inf

    def send(self, rows, values):
        """Send the values of `rows`, the first rows of the pending
        stack.  A descent that consumes every row it was sent of a stack
        cut short stops: its next value lies past the cut."""
        cut = len(rows) < len(self.pending)
        values = values.tolist()
        try:
            taken, self.pending = self.steps.send(values)
        except StopIteration as stop:
            taken, self.pending = stop.value, None
        for i, lam in enumerate(values[:taken]):
            if lam < self.low:
                self.low = lam
                self.records.append((self.fresh + i, lam, rows[i].copy()))
        self.count += taken
        self.fresh += taken
        if (cut and taken == len(rows)) or self.low < NEGATIVITY_THRESHOLD:
            self.pending = None


@functools.lru_cache(maxsize=16)
def _sweep_moves(dim):
    """Rows 2i and 2i + 1 move coordinate i by +1 and -1; read-only,
    since every search with `dim` coordinates shares it."""
    moves = np.zeros((2 * dim, dim))
    moves[0::2] = np.eye(dim)
    moves[1::2] = -np.eye(dim)
    moves.setflags(write=False)
    return moves


def _sweep_offsets(dim):
    """offsets(steps, lo, hi), for a tuple of steps: the moves of the
    compass sweeps over coordinates lo..hi-1 at each step in turn, as one
    array whose rows 2i and 2i + 1 of a sweep move coordinate lo + i by
    +step and -step, made once per search and argument triple."""
    moves = _sweep_moves(dim)
    return functools.cache(lambda steps, lo, hi: np.multiply.outer(
        steps, moves[2 * lo:2 * hi]).reshape(-1, dim))


def _compass_descent(x, pairs, offsets):
    """First-improvement compass descent from x, from step 0.5 until the
    step falls below 1e-3, as a coroutine.  It yields (taken, stack):
    the number of values it consumed of the stack before, and the next
    stack of trial points, x plus offsets(steps, lo, hi), whose values
    it is then sent as a list of floats; it returns the number it
    consumed of the last stack.  A sweep tries +step, then -step, on
    each coordinate in turn and moves to the first trial that improves;
    the next sweep goes on from the next coordinate, and a sweep over
    every coordinate that finds nothing halves the step.

    The order of the trials is fixed, so each stack holds the trials the
    descent will probably take next:
    - the first is x together with its whole first sweep;
    - after a sweep over every coordinate finds nothing, x stays put
      until a trial improves, so the next stack is every sweep left on
      the step ladder (step / 2, step / 4, ... while >= 1e-3), in order;
    - otherwise it is the rest of the sweep.  With `pairs`, for a descent
      that shares its evaluator calls with others, a stack after an
      improvement holds only the next coordinate's pair, since most
      improvements are taken there, and a stack after one that finds
      nothing holds the next two coordinates' pairs: the rest of the
      sweep would mostly be rows past the next improvement.
    A stack's values past its first improvement are computed but never
    consumed: the descent moves there, and the next stack starts from
    the new point."""
    dim = len(x)
    steps, lo, hi = (0.5,), 0, dim
    stack = np.concatenate([x[None], x + offsets(steps, lo, hi)])
    head, taken, improved = 1, 0, False
    while True:
        values = yield taken, stack
        if head:
            current = values[0]
        bar = current - 1e-12
        r = next((r for r, val in enumerate(values[head:]) if val < bar), None)
        if r is None:
            taken = len(values)
            step, i = steps[-1], hi
        else:
            taken = head + r + 1
            x, current = stack[taken - 1], values[taken - 1]
            span = 2 * (hi - lo)
            step, i, improved = steps[r // span], lo + r % span // 2 + 1, True
        head = 0
        if i == dim and improved:
            # a new sweep over every coordinate, at the same step
            i, improved = 0, False
        if i < dim:
            steps, lo = (step,), i
            hi = min(i + (1 if r is not None else 2), dim) if pairs else dim
        else:
            # a sweep over every coordinate found nothing: the ladder
            steps = ()
            while (step := step * 0.5) >= 1e-3:
                steps += (step,)
            if not steps:
                return taken
            lo, hi = 0, dim
        stack = x + offsets(steps, lo, hi)
