"""Certificate and search routes, checked against hand-solved programs."""

import math
from fractions import Fraction

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from rnlie import certify, curvature
from rnlie.brackets import Bracket, act_tensor, cut_tensor
from rnlie.certify import (DEFAULT_BUDGET, NEGATIVITY_THRESHOLD, Infeasible,
                           RnWitness, SearchFailure, SrnCertificate, Unknown,
                           _metric_factors, _metric_layout, _scaling_line, certify_srn_nice,
                           certify_srn_sampled, necessary_condition, search_rn_metric)
from rnlie.corpus import corpus
from rnlie.curvature import MetricParams, is_ricci_negative
from rnlie.derivations import require_derivation
from rnlie.errors import NumericalError, PreconditionError
from rnlie.moment import (DERIVATION_CENTRALIZER, DIAG_POSITIVE, TORUS_CENTRALIZER,
                          MomentValue, OrbitSample, _draw_block_elements, _group_blocks,
                          _moment_matrices, centralizer_blocks, orbit_sample)
from rnlie.rng import generator

h3 = corpus("heisenberg", 3).bracket
h5 = corpus("heisenberg", 5).bracket
h7 = corpus("heisenberg", 7).bracket
t5 = corpus("tricky5").bracket


def diag(*entries):
    return np.diag(np.array(entries, dtype=float))


class TestNiceLp:
    def test_h3_integer_margin(self):
        # maximize eps with eps <= 1 + c and eps <= 2 - c: optimum 3/2 at c = 1/2
        res = certify_srn_nice(diag(1, 1, 2), h3)
        assert isinstance(res, SrnCertificate)
        assert res.method == "NiceLP"
        assert res.margin == Fraction(3, 2)
        assert res.coefficients == {(0, 1, 2): Fraction(1, 2)}

    def test_h3_float_entries(self):
        res = certify_srn_nice(diag(-0.4, 0.9, 0.5), h3)
        assert isinstance(res, SrnCertificate)
        # optimum (d0 + d2) / 2 on the exact binary values of the floats
        assert abs(float(res.margin) - 0.05) < 1e-12

    def test_h3_infeasible_with_dual(self):
        res = certify_srn_nice(diag(-1, 1.5, 0.5), h3)
        assert isinstance(res, Infeasible)
        assert res.margin == Fraction(-1, 4)
        assert len(res.dual) == 3 and all(v >= 0 for v in res.dual)
        # the dual prices certify the bound: sum d_r * dual_r equals the value
        assert sum(f * Fraction(v) for f, v in
                   zip(res.dual, [-1.0, 1.5, 0.5])) == res.margin

    def test_h5_margin(self):
        res = certify_srn_nice(diag(1, 1, 1, 1, 2), h5)
        assert res.margin == Fraction(4, 3)
        # rational entries stay exact: no float holds -1/5 or 8/15
        F = Fraction
        res = certify_srn_nice([F(-1, 5), F(8, 15), F(-1, 5), F(8, 15), F(1, 3)], h5)
        assert isinstance(res, Infeasible) and res.margin == F(-1, 45)

    def test_trace_gate(self):
        with pytest.raises(PreconditionError):
            certify_srn_nice(diag(-1, 1, 0), h3)

    def test_trace_gate_is_exact_on_exact_input(self):
        tiny = [Fraction(x, 10**11) for x in (1, 1, 2)]
        res = certify_srn_nice(tiny, h3)
        assert isinstance(res, Infeasible)
        assert res.margin == Fraction(3, 2 * 10**11)
        with pytest.raises(PreconditionError, match="trace"):
            certify_srn_nice([float(x) for x in tiny], h3)
        with pytest.raises(PreconditionError, match="trace"):
            certify_srn_nice([Fraction(-1), Fraction(1), Fraction(0)], h3)

    def test_torus_membership_gate(self):
        with pytest.raises(PreconditionError):
            certify_srn_nice(diag(1, 1, 1), h3)
        # off the torus by 1e-11: inside the float gate's tolerance, but
        # exact input must take the exact gate
        with pytest.raises(PreconditionError):
            certify_srn_nice([Fraction(1), Fraction(1), 2 + Fraction(1, 10**11)], h3)

    def test_nice_basis_gate(self):
        with pytest.raises(PreconditionError):
            certify_srn_nice(diag(1, 1, 2, 2, 3), t5)

    def test_matches_known_h3_region(self):
        # ground truth for this algebra: certifiable iff 2a+b and a+2b both
        # positive; the margin comes out as min(2a+b, a+2b)/2
        for a8 in range(-12, 13, 3):
            for b8 in range(-12, 13, 3):
                a, b = a8 / 8.0, b8 / 8.0
                if 2 * (a + b) <= 1e-10:
                    continue  # trace gate
                res = certify_srn_nice(diag(a, b, a + b), h3)
                expected = Fraction(min(2 * a8 + b8, a8 + 2 * b8), 16)
                assert res.margin == expected
                assert isinstance(res, SrnCertificate) == (expected > 0)
        # and exactly at entries no float holds
        third = Fraction(1, 3)
        assert certify_srn_nice([third, third, 2 * third], h3).margin == Fraction(1, 2)

    def test_scaling_and_monotonicity(self):
        base = certify_srn_nice(diag(1, 1, 2), h3)
        scaled = certify_srn_nice(diag(3, 3, 6), h3)
        assert scaled.margin == 3 * base.margin
        # adding a positive torus direction can only add its floor
        bumped = certify_srn_nice(diag(1 + 1, 1 + 2, 2 + 3), h3)
        assert bumped.margin >= base.margin + 1


class TestSampledLp:
    def test_tricky5_certificate(self):
        D = diag(1, 1, 2, 2, 3)
        sample = orbit_sample(DERIVATION_CENTRALIZER, t5, count=24, seed=7,
                              derivation=D)
        res = certify_srn_sampled(D, t5, sample)
        assert isinstance(res, SrnCertificate)
        assert res.method == "SampledLP"
        assert float(res.margin) > 0.5
        used = {i for i, v in res.coefficients.items() if v > 0}
        assert used and all(0 <= i < 24 for i in used)

    def test_boundary_derivation_stays_unknown(self):
        # metric search caps at top Ricci eigenvalue 0 from every start for
        # this derivation: it sits on the boundary of the attainable set.
        # Mixing sampled points across the two orderings of the paired
        # directions would still "certify" it with a large margin, so this
        # pins the fundamental-domain sort that keeps the test sound.
        D = diag(1, -1, 0, 0, 1)
        sample = orbit_sample(DERIVATION_CENTRALIZER, t5, count=16, seed=3,
                              derivation=D)
        res = certify_srn_sampled(D, t5, sample)
        assert isinstance(res, Unknown)
        assert float(res.margin) <= 1e-7

    def test_uncertifiable_stays_unknown(self):
        # every point of this orbit has a strictly positive last coordinate
        # while the derivation is zero there, so no combination can leave a
        # positive margin; the verdict must stay inconclusive
        D = diag(-1, 2, 1, 1, 0)
        sample = orbit_sample(DERIVATION_CENTRALIZER, t5, count=16, seed=3,
                              derivation=D)
        res = certify_srn_sampled(D, t5, sample)
        assert isinstance(res, Unknown)
        assert float(res.margin) <= 1e-7

    def test_group_tag_gate(self):
        sample = orbit_sample(DIAG_POSITIVE, t5, count=4, seed=1)
        with pytest.raises(PreconditionError):
            certify_srn_sampled(diag(1, 1, 2, 2, 3), t5, sample)

    def test_non_derivation_refused(self):
        # diag(1, 1, 1, 1, 3) is not a derivation of tricky5 (the torus is
        # diag(a, b, a + b, a + b, 2a + b)), yet this sample would certify
        # it with margin 1 if the derivation were not checked
        sample = orbit_sample(TORUS_CENTRALIZER, t5, count=8, seed=17)
        for D in ([1, 1, 1, 1, 3], diag(1, 1, 1, 1, 3)):
            with pytest.raises(PreconditionError, match="not a derivation"):
                certify_srn_sampled(D, t5, sample)

    def test_foreign_sample_refused(self):
        # a filiform(5) sample passes the commutation and slice gates for
        # this derivation of heisenberg(5) and would certify it with margin
        # about 2/3, though the exact margin program on h5's
        # multiplicity-free torus refutes it (margin -4/3)
        f5 = corpus("filiform", 5).bracket
        sample = orbit_sample(TORUS_CENTRALIZER, f5, count=8, seed=1)
        D = [-2, 3, -3, 4, 1]
        assert certify_srn_nice(D, h5).margin == Fraction(-4, 3)
        with pytest.raises(PreconditionError, match="another bracket"):
            certify_srn_sampled(D, h5, sample)
        sample.verify(f5)

    def test_commutation_gate(self):
        sample = orbit_sample(DERIVATION_CENTRALIZER, t5, count=6, seed=7,
                              derivation=diag(1, 1, 2, 2, 3))
        with pytest.raises(PreconditionError, match="commute"):
            certify_srn_sampled(diag(1, -1, 0, 0, 1), t5, sample)

    def test_slice_gate(self):
        """A TorusCentralizer sample whose last element is a raw draw, not
        rotated onto the slice: it commutes with D and its moment value
        recomputes, but the value is off the diagonal."""
        blocks = _group_blocks(TORUS_CENTRALIZER, t5)
        g0 = _draw_block_elements(generator(1, 12), blocks, 5, 1)
        m = _moment_matrices(cut_tensor(act_tensor(t5.tensor(), g0)))
        assert np.abs(m[0, 2, 3]) > 1e-3
        drawn = orbit_sample(TORUS_CENTRALIZER, t5, count=3, seed=1)
        sample = OrbitSample(TORUS_CENTRALIZER, drawn.points + ((g0[0], MomentValue(m[0])),), 1)
        sample.verify(t5)
        assert isinstance(certify_srn_sampled(diag(1, 1, 2, 2, 3), t5, drawn),
                          SrnCertificate)
        with pytest.raises(PreconditionError, match="diagonal slice"):
            certify_srn_sampled(diag(1, 1, 2, 2, 3), t5, sample)


class TestConstructive:
    """Nonnegative derivations, most of them zero on some basis vector.
    A certificate built from one weight matrix per zero entry is a
    feasible point of the margin test over every weight matrix, so that
    test certifies each input with at least its margin."""

    def test_h3_half(self):
        res = certify_srn_nice(diag(0, 1, 1), h3)
        assert res.method == "NiceLP"
        assert res.margin == Fraction(1, 2)
        assert res.coefficients == {(0, 1, 2): Fraction(1, 2)}

    def test_h5_third(self):
        D = diag(0, 1, 0, 1, 1)
        res = certify_srn_nice(D, h5)
        assert res.margin == Fraction(1, 3)
        assert res.coefficients == {(0, 1, 4): Fraction(1, 3), (2, 3, 4): Fraction(1, 3)}
        # the quarter-strength combination is feasible too, margin 1/4:
        remainder = np.diag(D).copy()
        for (i, j, k) in res.coefficients:
            remainder[i] += 0.25
            remainder[j] += 0.25
            remainder[k] -= 0.25
        assert remainder.min() >= 0.25

    def test_abelian_trivial(self):
        ab = corpus("abelian", 4).bracket
        res = certify_srn_nice(np.eye(4), ab)
        assert res.margin == 1 and res.coefficients == {}

    def test_no_kernel(self):
        res = certify_srn_nice(diag(1, 1, 2), h3)
        assert res.margin == Fraction(3, 2)

    def test_margin_threshold_is_absolute(self):
        """A margin at or below 1e-7 certifies nothing, whatever the scale
        of D; D and tD extend to the same Lie algebra for t > 0, so a
        rescaled D gets its certificate."""
        tiny = [Fraction(0), Fraction(1, 10**8), Fraction(1, 10**8)]
        res = certify_srn_nice(tiny, h3)
        assert isinstance(res, Infeasible) and res.margin == Fraction(1, 2 * 10**8)
        res = certify_srn_nice([10**8 * v for v in tiny], h3)
        assert isinstance(res, SrnCertificate) and res.margin == Fraction(1, 2)


class TestNecessaryCondition:
    def test_h3_examples(self):
        # (2, -3, -1) has trace -2, and -D has trace 2 and centre entry 1
        cases = [((1, 1, 2), True), ((2, -1, 1), True), ((3, -2, 1), True),
                 ((2, -3, -1), True), ((-1, 1, 0), False), ((0, 0, 0), False)]
        for entries, want in cases:
            assert necessary_condition(diag(*entries), h3) is want

    def test_sign_of_d_is_free(self):
        # the extension by -D is the extension by D, so a derivation with
        # negative trace can pass: here -D = diag(-2, 8, 6, 4, 2), positive
        # on the centre e5, and the search finds a witness for D itself
        f5 = corpus("filiform", 5).bracket
        D = diag(2, -8, -6, -4, -2)
        assert necessary_condition(D, f5) is True
        assert necessary_condition(-D, f5) is True
        res = search_rn_metric(D, f5, seed=281444313)
        assert isinstance(res, RnWitness)
        assert abs(res.lambda_max + 8.70) < 5e-3

    def test_central_kernel_blocks(self):
        # one abelian direction added to the three dimensional Heisenberg
        # algebra; the derivation is zero on that central direction
        b = Bracket(4, {(0, 1, 2): 1})
        assert necessary_condition(diag(1, 0, 1, 0), b) is False
        assert necessary_condition(diag(1, 1, 2, 1), b) is True

    def test_empty_center_vacuous(self):
        e3 = corpus("euclid3").bracket
        assert necessary_condition(np.eye(3), e3) is True
        assert necessary_condition(-np.eye(3), e3) is True


class TestSearch:
    def test_witness_at_identity(self):
        res = search_rn_metric(diag(1, 1, 2), h3, seed=11)
        assert isinstance(res, RnWitness)
        assert abs(res.lambda_max + 4.5) < 1e-9

    def test_abelian_identity(self):
        ab = corpus("abelian", 3).bracket
        res = search_rn_metric(np.eye(3), ab, seed=11)
        assert isinstance(res, RnWitness)
        assert abs(res.lambda_max + 3.0) < 1e-9

    def test_descent_needed(self):
        # the identity metric gives top eigenvalue exactly 0 here
        D = diag(-0.4, 0.9, 0.5)
        assert abs(is_ricci_negative(D, h3)[1]) < 1e-12
        res = search_rn_metric(D, h3, seed=11)
        assert isinstance(res, RnWitness)
        flag, lam = is_ricci_negative(D, h3, res.params)
        assert flag and lam == res.lambda_max < -1e-6

    def test_failure_consumes_budget(self):
        res = search_rn_metric(diag(-1, 1, 0), h3, budget=2000, seed=11)
        assert isinstance(res, SearchFailure)
        assert res.evaluations == 2000
        assert res.lambda_best > -1e-6

    @pytest.mark.parametrize("budget", [0, -5, 2.5, True])
    def test_invalid_budget_refused(self, budget):
        # 0 and -5 used to end in a SearchFailure after no evaluation, 2.5
        # in a TypeError from slicing, and True in one evaluation
        with pytest.raises(PreconditionError, match="budget"):
            search_rn_metric(diag(1, 1, 2), h3, budget=budget, seed=11)

    def test_non_derivation_refused(self):
        # d1 + d2 = 2 but the centre entry is 0, so the "extension" by this
        # matrix is no Lie algebra and a search over it would decide nothing
        h5 = corpus("heisenberg", 5).bracket
        with pytest.raises(PreconditionError, match="not a derivation"):
            search_rn_metric(diag(1, 1, -1, -1, 0), h5, seed=504)

    def test_deterministic(self):
        D = diag(-0.4, 0.9, 0.5)
        a = search_rn_metric(D, h3, seed=5)
        b = search_rn_metric(D, h3, seed=5)
        assert a.lambda_max == b.lambda_max
        assert np.array_equal(a.params.h, b.params.h)
        assert np.array_equal(a.params.X, b.params.X)

    def test_certificate_implies_witness(self):
        # soundness chain: LP certificates must be confirmed by search
        for entries in [(1, 1, 2), (0.25, 1.0, 1.25), (2, -0.5, 1.5)]:
            D = diag(*entries)
            cert = certify_srn_nice(D, h3)
            assert isinstance(cert, SrnCertificate)
            res = search_rn_metric(D, h3, seed=13)
            assert isinstance(res, RnWitness)
            assert res.lambda_max < -1e-6


def reference_search(D, b, budget=DEFAULT_BUDGET, seed=0):
    """The metric search one point at a time, as it was before stacked
    evaluation: each point is one is_ricci_negative call on the Koszul
    tensor, with h built here from the point's coordinates (each block's
    lower triangle, row by row, e^a on the diagonal), and a restart from
    the best point starts at that point's coordinates."""
    M = np.asarray(D, dtype=float)
    n = b.dim
    require_derivation(M, b)
    rng = generator(int(seed), 21)
    off = M - np.diag(np.diag(M))
    if not off.size or np.abs(off).max() <= 1e-9 * max(1.0, np.abs(M).max()):
        blocks = centralizer_blocks(np.diag(M))
    else:
        blocks = [tuple(range(n))]
    # the (row, column) of each coordinate of h
    entries = [(i, j) for blk in blocks for r, i in enumerate(blk) for j in blk[:r + 1]]
    asize = _metric_layout(tuple(blocks))[2]
    assert asize == len(entries)
    state = {"evals": 0, "best": math.inf, "best_params": MetricParams.identity(n)}

    def factor(a):
        h = np.zeros((n, n))
        for (i, j), v in zip(entries, a):
            h[i, j] = np.exp(v) if i == j else v
        return h

    def evaluate(x):
        if state["evals"] >= budget:
            return None
        state["evals"] += 1
        try:
            params = MetricParams(1.0, x[asize:], factor(x[:asize]))
            lam = is_ricci_negative(M, b, params)[1]
        except (PreconditionError, NumericalError, np.linalg.LinAlgError):
            return math.inf
        if lam < state["best"]:
            state["best"], state["best_params"], state["best_x"] = lam, params, x
        return lam

    def finished():
        return state["best"] < NEGATIVITY_THRESHOLD

    def descend(x):
        current = evaluate(x)
        if current is None or finished():
            return
        step = 0.5
        while step >= 1e-3 and state["evals"] < budget and not finished():
            improved = False
            for i in range(len(x)):
                for sgn in (1.0, -1.0):
                    trial = x.copy()
                    trial[i] += sgn * step
                    val = evaluate(trial)
                    if val is None or finished():
                        return
                    if val < current - 1e-12:
                        x, current, improved = trial, val, True
                        break
            if not improved:
                step *= 0.5

    dim = asize + n
    if evaluate(np.zeros(dim)) is not None and not finished():
        for s in np.linspace(0.25, 25.0, 50):
            x = np.array([s if i == j else 0.0 for i, j in entries] + [0.0] * n)
            if evaluate(x) is None or finished():
                break
    while not finished() and state["evals"] < budget:
        if state["best"] < math.inf and state["evals"] < budget // 3:
            x = state["best_x"].copy()
        else:
            x = 0.6 * rng.standard_normal(dim)
        descend(x)
    if finished():
        flag, lam = is_ricci_negative(M, b, state["best_params"])
        if flag and lam < NEGATIVITY_THRESHOLD:
            return RnWitness(state["best_params"], lam)
    return SearchFailure(state["best"], state["best_params"], state["evals"])


def sequential_search(D, b, budget=DEFAULT_BUDGET, seed=0):
    """The stacked search with one descent at a time, as it was before
    its random restarts ran in lockstep: each compass sweep goes to the
    evaluator as its own stack, its values are taken one by one, and
    rows past the budget are never computed.  It calls the evaluator
    through the certify module, so a test may replace it in both."""
    n = b.dim
    M = np.asarray(D, dtype=float)
    require_derivation(M, b)
    rng = generator(int(seed), 21)
    if np.count_nonzero(M - np.diag(np.diag(M))) == 0:
        blocks = centralizer_blocks(np.diag(M))
    else:
        blocks = [tuple(range(n))]
    asize = _metric_layout(tuple(blocks))[2]
    dim = asize + n
    state = {"evals": 0, "best": math.inf, "best_x": np.zeros(dim)}

    def poll(rows):
        rows = rows[:budget - state["evals"]]
        if not len(rows):
            return
        h = certify._metric_factors(rows[:, :asize], blocks, n)
        values = certify._top_eigenvalues(M, b, rows[:, asize:], h)
        for x, lam in zip(rows, values):
            state["evals"] += 1
            if lam < state["best"]:
                state["best"], state["best_x"] = float(lam), x
            yield x, lam

    def finished():
        return state["best"] < NEGATIVITY_THRESHOLD

    def done():
        return finished() or state["evals"] >= budget

    def descend(x):
        for _, current in poll(x[None]):
            pass
        if done():
            return
        moves = np.zeros((2 * dim, dim))
        moves[0::2] = np.eye(dim)
        moves[1::2] = -np.eye(dim)
        step = 0.5
        while step >= 1e-3 and not done():
            improved = False
            i = 0
            while i < dim:
                trials = x + step * moves[2 * i:]
                start, i = i, dim
                for r, (trial, val) in enumerate(poll(trials)):
                    if done():
                        return
                    if val < current - 1e-12:
                        x, current, improved = trial, val, True
                        i = start + r // 2 + 1
                        break
            if not improved:
                step *= 0.5

    for _ in poll(np.zeros((1, dim))):
        pass
    if not done():
        for _ in poll(_scaling_line(tuple(blocks), n)):
            if finished():
                break
    while not done():
        if state["best"] < math.inf and state["evals"] < budget // 3:
            x = state["best_x"].copy()
        else:
            x = 0.6 * rng.standard_normal(dim)
        descend(x)
    x = state["best_x"]
    h = certify._metric_factors(x[None, :asize], blocks, n)[0]
    params = MetricParams(1.0, x[asize:], np.diag(h) if h.ndim == 1 else h)
    if finished():
        flag, lam = is_ricci_negative(M, b, params)
        if flag and lam < NEGATIVITY_THRESHOLD:
            return RnWitness(params, lam)
    return SearchFailure(state["best"], params, state["evals"])


def _fingerprint(res):
    """The bytes two equal search results share."""
    lam = res.lambda_max if isinstance(res, RnWitness) else res.lambda_best
    return (type(res).__name__, lam, getattr(res, "evaluations", None),
            res.params.h.tobytes(), res.params.X.tobytes())


def _same_params(a, b):
    return (a.c == b.c and np.allclose(a.X, b.X, rtol=1e-12, atol=1e-12)
            and np.allclose(a.h, b.h, rtol=1e-12, atol=1e-12))


_T5 = 1 / 3
_NON_DIAGONAL = np.array([[-0.4, 0.3, 0.0], [0.0, 0.9, 0.0], [0.2, 0.0, 0.5]])
# the seed-2405 heisenberg:7 point of the witness benchmark, with two
# 3 x 3 centralizer blocks
H7_BLOCKS3 = diag(31, 33, 31, 33, 33, 31, 64) / 256
# (bracket, derivation, seed): identity and scaling-line ends, compass
# descents with restarts, 2 x 2 centralizer blocks (h5 with a repeated
# pair) and one derivation that is not diagonal
WITNESS_CASES = [
    (h3, diag(1, 1, 2), 11),
    (h3, diag(-0.4, 0.9, 0.5), 11),
    (h3, diag(2, -0.5, 1.5), 13),
    (h5, diag(-0.25, _T5 + 0.25, 0.05, _T5 - 0.05, _T5), 700),
    (h5, diag(-1 / 8, _T5 + 1 / 8, -1 / 8, _T5 + 1 / 8, _T5), 3),
    (corpus("filiform", 5).bracket, diag(0.75, -0.5, 0.25, 1.0, 1.75), 4),
    (corpus("filiform", 6).bracket, diag(0.5, -0.25, 0.25, 0.75, 1.25, 1.75), 5),
    (h3, _NON_DIAGONAL, 6),
]
# gate-failing derivations at budget 2000, whose restarts from the best
# point the reference makes from that point's coordinates.  Left out: filiform(5)
# diag(4, -7, -3, 1, 5) and the h3-plus-line diag(1, 0, 1, 0) of
# acceptance 09, whose best values sit at rounding level around 0, where
# the Koszul tensor and the closed form break ties between points
# differently (0.0 against 1.8e-24); both still fail after 2000.
FAILURE_CASES = [
    (h3, diag(-1, 1, 0), 11),
    (h3, diag(2, -2, 0), 503),
    (h5, diag(1, -1, 1, -1, 0), 504),
    (h5, diag(1, -1, 2, -2, 0), 505),
]


# the exhaust benchmark's derivations: each fails the necessary
# condition, so every search spends its whole budget
EXHAUST_CASES = [
    (h3, diag(-1, 1, 0)),
    (h5, diag(1, -1, 2, -2, 0)),
    (corpus("filiform", 5).bracket, diag(4, -7, -3, 1, 5)),
]


class TestLockstepSearch:
    """The search with its random restarts in lockstep against the
    sequential driver: the same bytes at budgets that end inside a
    lockstep round and at the default budget.  The small budgets end
    inside a pair stack (60: seven of the cases), a ladder stack (157:
    eleven) and a merged first stack (233: five), cutting it short.
    The last three cases: a descent that improves past the first step of
    a ladder and goes on from there (157 and 233), a search whose random
    restarts keep lowering its best value, and one whose first random
    start is already below -1e-6 (budget 60, evaluation 52)."""

    @pytest.mark.parametrize("budget", [1001, 4567, DEFAULT_BUDGET, 60, 157, 233])
    @pytest.mark.parametrize("b, D, seed",
                             [(b, D, seed) for b, D, seed in FAILURE_CASES + WITNESS_CASES]
                             + [(b, D, seed) for b, D in EXHAUST_CASES for seed in (1, 2)]
                             + [(h3, diag(-1, 1.75, 0.75), 0), (h3, diag(-0.75, 1.5, 0.75), 5),
                                (h3, diag(2, -0.5, 1.5), 112)])
    def test_same_bytes_as_sequential_driver(self, b, D, seed, budget):
        want = sequential_search(D, b, budget=budget, seed=seed)
        got = search_rn_metric(D, b, budget=budget, seed=seed)
        assert _fingerprint(got) == _fingerprint(want)

    def test_threshold_inside_a_round(self, monkeypatch):
        """A row-wise evaluator with a shallow well at the origin, where
        the identity, the scaling line and the restarts from the best
        point stay at 0 or above, and a deep well that only some random
        starts reach.  The first value below -1e-6 falls inside a
        random-phase descent while later descents are in flight, and
        both drivers stop at it after the same evaluations."""
        deep = np.array([1.5, 0.0, 0.0, 0.0, 0.0, 0.0])
        stacks = []

        def wells(M, C, X, h):
            z = np.concatenate([np.log(h), X], axis=1)
            near = far = np.zeros(len(z))
            for col, c in zip(z.T, deep):
                near = near + col * col
                far = far + (col - c) * (col - c)
            stacks.append(np.minimum(near, far - 0.5))
            return stacks[-1]

        monkeypatch.setattr(certify, "_top_eigenvalues", wells)
        D, budget = diag(-1, 1, 0), 2000
        want = sequential_search(D, h3, budget=budget, seed=3)
        stacks.clear()
        got = search_rn_metric(D, h3, budget=budget, seed=3)
        assert isinstance(got, SearchFailure)
        assert budget // 3 < got.evaluations < budget
        assert got.lambda_best < NEGATIVITY_THRESHOLD
        assert _fingerprint(got) == _fingerprint(want)
        # the first value below the threshold came with rows before it, and
        # with more rows after it than one descent's sweep (2 * dim = 12)
        # holds, so later descents were in flight
        crossing = next(v for v in stacks if v.min() < NEGATIVITY_THRESHOLD)
        at = int(np.argmax(crossing < NEGATIVITY_THRESHOLD))
        assert at > 0 and len(crossing) - at - 1 >= 12

    @pytest.mark.parametrize("b, D", EXHAUST_CASES)
    def test_window_is_a_cost_choice_only(self, monkeypatch, b, D):
        """The most descents in flight changes the evaluator's calls, not
        the values taken: full-budget searches give the sequential
        driver's bytes at windows 2, 8 and 32, and window 2 makes more
        evaluator calls than window 32."""
        want = _fingerprint(sequential_search(D, b, seed=3))
        calls = []
        inner = certify._top_eigenvalues

        def counted(*args):
            calls[-1] += 1
            return inner(*args)

        monkeypatch.setattr(certify, "_top_eigenvalues", counted)
        for window in (2, 8, 32):
            monkeypatch.setattr(certify, "_LOCKSTEP_WINDOW", window)
            calls.append(0)
            assert _fingerprint(search_rn_metric(D, b, seed=3)) == want
        assert calls[0] > calls[-1]

    @pytest.mark.parametrize("budget", [1, 2, 50, 51, 52])
    @pytest.mark.parametrize("b, D, seed",
                             FAILURE_CASES + WITNESS_CASES
                             + [(b, D, 1) for b, D in EXHAUST_CASES]
                             + [(h3, diag(0.15, 0.25, 0.4), 11)])
    def test_same_bytes_around_the_first_stack(self, b, D, seed, budget):
        """The identity metric and the 50 points of the scaling line go to
        the evaluator as one stack, which the sequential driver evaluates
        as two.  Budgets that cut the stack (1, 2, 50), end with it (51)
        or leave one evaluation past it (52) give the same bytes."""
        want = sequential_search(D, b, budget=budget, seed=seed)
        got = search_rn_metric(D, b, budget=budget, seed=seed)
        assert _fingerprint(got) == _fingerprint(want)


class TestStackedSearch:
    """The stacked search against the one-point-at-a-time reference."""

    @pytest.mark.parametrize("b, D, seed", WITNESS_CASES)
    def test_witness_trajectory(self, b, D, seed):
        want = reference_search(D, b, seed=seed)
        got = search_rn_metric(D, b, seed=seed)
        assert isinstance(want, RnWitness) and isinstance(got, RnWitness)
        assert _same_params(got.params, want.params)
        assert abs(got.lambda_max - want.lambda_max) <= 1e-12 * abs(want.lambda_max)

    @pytest.mark.parametrize("b, D, seed", FAILURE_CASES)
    def test_failure_trajectory(self, b, D, seed):
        want = reference_search(D, b, budget=2000, seed=seed)
        got = search_rn_metric(D, b, budget=2000, seed=seed)
        assert isinstance(want, SearchFailure) and isinstance(got, SearchFailure)
        assert got.evaluations == want.evaluations == 2000
        assert _same_params(got.params, want.params)

    def test_hot_path_builds_no_koszul_tensor(self, monkeypatch):
        """The Koszul-formula Ricci contraction runs once per witness, to
        confirm it, and never for a failure; no search builds the
        Riemann tensor of _koszul."""
        calls = []
        contraction = curvature._koszul_ricci

        def counted(C):
            calls.append(C.shape)
            return contraction(C)

        def refused(C):
            raise AssertionError("a search built the Riemann tensor")

        monkeypatch.setattr(curvature, "_koszul_ricci", counted)
        monkeypatch.setattr(curvature, "_koszul", refused)
        res = search_rn_metric(diag(-0.4, 0.9, 0.5), h3, seed=11)
        assert isinstance(res, RnWitness)
        assert calls == [(4, 4, 4)]  # the confirmation of the witness
        calls.clear()
        res = search_rn_metric(diag(-1, 1, 0), h3, budget=2000, seed=11)
        assert isinstance(res, SearchFailure) and res.evaluations == 2000
        assert calls == []

    def test_torus_search_builds_no_dense_factor(self, monkeypatch):
        """With 1 x 1 centralizer blocks the search evaluates on the
        diagonals: every factor _metric_factors gives it, for the
        evaluator calls and for the parameters it returns, is a (K, 3)
        stack of diagonals, and no dense transport runs (_transported_pair,
        or act_tensor, which no evaluator branch calls).  A search with a
        2 x 2 block gets (K, 3, 3) factors and takes the dense transport on
        every evaluator call and on the witness check, so the counters read
        what they guard."""
        counts = {"act_tensor": 0, "_transported_pair": 0}

        def counted(module, name):
            inner = getattr(module, name)

            def call(*args):
                counts[name] += 1
                return inner(*args)

            monkeypatch.setattr(module, name, call)

        counted(curvature, "act_tensor")
        counted(curvature, "_transported_pair")
        shapes, factors = [], certify._metric_factors
        monkeypatch.setattr(certify, "_metric_factors",
                            lambda *args: shapes.append(factors(*args).shape[1:])
                            or factors(*args))
        calls, evaluate = [], certify._top_eigenvalues
        monkeypatch.setattr(certify, "_top_eigenvalues",
                            lambda *args: calls.append(1) or evaluate(*args))
        res = search_rn_metric(diag(-1, 1, 0), h3, budget=2000, seed=11)
        assert isinstance(res, SearchFailure) and res.evaluations == 2000
        assert counts == {"act_tensor": 0, "_transported_pair": 0}
        assert shapes == [(3,)] * (len(calls) + 1)
        calls.clear()
        shapes.clear()
        res = search_rn_metric(diag(1, 1, 2), h3, budget=50, seed=1)
        assert isinstance(res, RnWitness)
        assert counts["_transported_pair"] == len(calls) + 1 >= 2
        assert shapes == [(3, 3)] * (len(calls) + 1)
        assert counts["act_tensor"] == 0

    def test_search_ending_on_the_scaling_line_makes_one_evaluator_call(self, monkeypatch):
        """The identity reads 0.18 here and the first point of the
        scaling line, h = e^0.25, is a witness: one call of 51 rows."""
        calls = []
        inner = certify._top_eigenvalues

        def counted(*args):
            calls.append(len(args[2]))
            return inner(*args)

        monkeypatch.setattr(certify, "_top_eigenvalues", counted)
        D = diag(0.15, 0.25, 0.4)
        assert is_ricci_negative(D, h3)[1] > 0
        res = search_rn_metric(D, h3, seed=11)
        assert isinstance(res, RnWitness)
        assert np.array_equal(res.params.h, np.exp(0.25) * np.eye(3))
        assert not res.params.X.any()
        assert calls == [51]

    def test_generator_made_only_at_the_first_random_start(self, monkeypatch):
        """Searches that end at the identity, on the scaling line or in a
        descent from the best point never draw, so they make no
        generator; a search that reaches its random phase makes one."""
        made = []
        inner = certify.generator

        def counted(*args):
            made.append(args)
            return inner(*args)

        monkeypatch.setattr(certify, "generator", counted)
        for D in (diag(1, 1, 2), diag(0.15, 0.25, 0.4), diag(-0.4, 0.9, 0.5)):
            assert isinstance(search_rn_metric(D, h3, seed=11), RnWitness)
        assert made == []
        res = search_rn_metric(diag(-1, 1, 0), h3, budget=2000, seed=11)
        assert isinstance(res, SearchFailure) and res.evaluations == 2000
        assert made == [(11, 21)]

    def test_seed_out_of_range_refused_before_evaluating(self, monkeypatch):
        # the generator is made late, but its key is checked at the start
        monkeypatch.setattr(certify, "_top_eigenvalues", None)
        for seed in (-1, 2 ** 64):
            with pytest.raises(PreconditionError, match="outside"):
                search_rn_metric(diag(1, 1, 2), h3, seed=seed)

    def test_lockstep_restarts_share_evaluator_calls(self, monkeypatch):
        """The random restarts of a full-budget search go to the
        evaluator together, in stacks sized to what each descent takes:
        one descent at a time, a sweep per stack, took 2177 calls here,
        lockstep rounds of such stacks 637 calls of 20 679 rows, and
        rounds with the rest of the sweep after a pair that finds nothing
        425 calls of 15 798 rows.  The stacks now take 309 calls of
        12 658 rows; without the ladder or the merged first stack the
        calls go up, and without the pairs the rows do."""
        calls = []
        inner = certify._top_eigenvalues

        def counted(*args):
            calls.append(len(args[2]))
            return inner(*args)

        monkeypatch.setattr(certify, "_top_eigenvalues", counted)
        res = search_rn_metric(diag(-1, 1, 0), h3, seed=11)
        assert isinstance(res, SearchFailure) and res.evaluations == DEFAULT_BUDGET
        assert len(calls) <= 320
        assert sum(calls) <= 13_000


def per_value_take(state, budget, values, points):
    """The search's take as it was before descents handed over records:
    every value one by one, one evaluation each, until the budget is
    spent or the best is below -1e-6.  Returns whether the search is
    done; the bit-level reference for _Tally.take."""
    for i, lam in enumerate(values):
        state["evals"] += 1
        if lam < state["best"]:
            state["best"], state["best_x"] = float(lam), points[i]
        if state["best"] < NEGATIVITY_THRESHOLD or state["evals"] >= budget:
            return True
    return False


# values with ties (+0.0 against -0.0, repeats), inf rows, and -1e-6
# itself, which is not below the threshold
_TIES = [0.5, 0.5, 1e-3, 1e-3, 0.0, -0.0, -1e-7, -1e-7, -1e-6, np.inf, np.inf, 2e-9]


class TestTakeFromRecords:
    """_Tally.take, given the count of a descent's values and the records
    of its running minimum, against the per-value loop on the values."""

    @staticmethod
    def _records(values, points, low):
        """Each value that sets the running minimum, which starts at low
        and goes on across the descent's handovers, with its position and
        a copy of its point; and the minimum after them."""
        records = []
        for i, lam in enumerate(values):
            if lam < low:
                low = lam
                records.append((i, lam, points[i].copy()))
        return records, low

    @pytest.mark.parametrize("seed", range(40))
    def test_same_as_per_value_loop(self, seed):
        """Seeded descents in draw order, each handing over several
        batches, at budgets that cut some batch short; in some batches a
        value below -1e-6 falls in the middle.  evals, the bits of best
        and the bytes of best_x agree after every handover."""
        rng = np.random.default_rng(seed)
        budget = int(rng.integers(1, 120))
        tally = certify._Tally(budget, 3)
        state = {"evals": 0, "best": math.inf, "best_x": np.zeros(3)}
        done = False
        while not done:
            low = math.inf
            for _ in range(int(rng.integers(1, 5))):
                count = int(rng.integers(0, 14))
                values = [_TIES[i] for i in rng.integers(0, len(_TIES), count)]
                if count > 2 and rng.random() < 0.15:
                    values[int(rng.integers(1, count - 1))] = -2e-6
                points = rng.standard_normal((count, 3))
                records, low = self._records(values, points, low)
                done = tally.take(count, records)
                assert done == per_value_take(state, budget, values, points)
                assert tally.evals == state["evals"]
                assert np.float64(tally.best).tobytes() == np.float64(state["best"]).tobytes()
                assert tally.best_x.tobytes() == state["best_x"].tobytes()
                if done:
                    break
        assert tally.evals == budget or tally.best < NEGATIVITY_THRESHOLD

    @pytest.mark.parametrize("budget", [11, 12, 31, 32, 200])
    @pytest.mark.parametrize("line", ["ties", "threshold"])
    def test_first_stack_from_its_lowest_value(self, monkeypatch, line, budget):
        """The identity and scaling line are taken from their lowest
        value up to the first below -1e-6.  A row-wise evaluator puts
        ties (+0.0 at line point 10, -0.0 at 20, and 0.0 twice more),
        inf rows, or a value below -1e-6 at point 30 with lower values
        after it, on the 51 rows; the search and the sequential driver
        give the same bytes.  The first value below -1e-6 stops the taking
        (the confirmation then refuses it), and of ties the first counts."""
        s = np.round(np.linspace(0.25, 25.0, 50), 6)
        table = {0.0: 0.75}
        for k, v in enumerate(s):
            table[v] = 1.0 + k % 3 if k % 7 else np.inf
        if line == "ties":
            for k, v in ((10, 0.0), (20, -0.0), (25, 0.0), (40, 0.0)):
                table[s[k]] = v
        else:
            for k, v in ((12, 1e-9), (30, -3e-6), (31, -5e-6), (45, -1.0)):
                table[s[k]] = v

        def wells(M, C, X, h):
            z = np.concatenate([np.log(h), X], axis=1)
            out = 1.0 + (z * z).sum(axis=1)
            for r, row in enumerate(np.round(z, 6)):
                if (row[:3] == row[0]).all() and not row[3:].any():
                    out[r] = table.get(row[0], out[r])
            return out

        monkeypatch.setattr(certify, "_top_eigenvalues", wells)
        D = diag(-1, 1, 0)
        want = sequential_search(D, h3, budget=budget, seed=4)
        got = search_rn_metric(D, h3, budget=budget, seed=4)
        assert _fingerprint(got) == _fingerprint(want)
        if line == "threshold" and budget >= 32:
            assert got.evaluations == 32 and got.lambda_best == -3e-6
        elif line == "ties" and budget >= 12:
            assert np.float64(got.lambda_best).tobytes() == np.float64(0.0).tobytes()
            assert np.array_equal(got.params.h,
                                  np.exp(np.linspace(0.25, 25.0, 50)[10]) * np.eye(3))


@pytest.mark.parametrize("blocks, n", [
    ([(i,) for i in range(5)], 5),
    ([(0, 1, 2, 3), (4,)], 5),
    ([(0, 1), (2,), (3, 4)], 5),
])
def test_scaling_line_matches_per_point_packing(blocks, n):
    """The scaling line as one outer product holds the same bytes as
    packing the logs of e^s I point by point: s on the diagonal and +0.0
    below it, at the offsets of _metric_layout, then X = 0."""
    diagonal, below, width = _metric_layout(tuple(blocks))
    want = []
    for s in np.linspace(0.25, 25.0, 50):
        x = np.zeros(width + n)
        for (rows, cols, at), entries in ((diagonal, s * np.eye(n)), (below, np.zeros((n, n)))):
            x[at] = entries[rows, cols]
        want.append(x)
    want = np.array(want)
    got = _scaling_line(tuple(blocks), n)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


def _heisenberg_diagonal(T, *a):
    """diag(a_1, T - a_1, .., a_k, T - a_k, T) on heisenberg(2k + 1)."""
    return diag(*[x for ai in a for x in (ai, T - ai)], T)


# Searches whose centralizer blocks are larger than 1 x 1 (or whose D is
# not diagonal), with the verdict class each gave when the search still
# exponentiated its blocks: (bracket, D, seed, budget, block sizes, class).
# The witnesses are NiceLP-certified, except the non-diagonal D; the
# failures fail the necessary condition for D and for -D.
BLOCK_VERDICTS = [
    (h5, diag(-1 / 8, _T5 + 1 / 8, -1 / 8, _T5 + 1 / 8, _T5), 3, DEFAULT_BUDGET, [2, 2, 1],
     RnWitness),
    (h3, _NON_DIAGONAL, 6, DEFAULT_BUDGET, [3], RnWitness),
    (h3, diag(1, 1, 2), 1, DEFAULT_BUDGET, [2, 1], RnWitness),
    (h5, diag(1, 1, 1, 1, 2), 1, DEFAULT_BUDGET, [4, 1], RnWitness),
    (h5, _heisenberg_diagonal(1 / 3, -0.15, -0.15), 1, DEFAULT_BUDGET, [2, 2, 1], RnWitness),
    (h5, _heisenberg_diagonal(1 / 3, 0.45, 0.45), 2, DEFAULT_BUDGET, [2, 2, 1], RnWitness),
    (h7, H7_BLOCKS3, 1, DEFAULT_BUDGET, [3, 3, 1], RnWitness),
    (h7, _heisenberg_diagonal(0.25, -0.08, -0.08, -0.08), 1, DEFAULT_BUDGET, [3, 3, 1],
     RnWitness),
    (h7, _heisenberg_diagonal(0.25, 0.32, 0.32, 0.32), 2, DEFAULT_BUDGET, [3, 3, 1], RnWitness),
    (h7, _heisenberg_diagonal(0.25, -0.06, -0.06, 0.2), 1, DEFAULT_BUDGET, [2, 2, 1, 1, 1],
     RnWitness),
    (h7, diag(*[1 / 8] * 6, 1 / 4), 1, DEFAULT_BUDGET, [6, 1], RnWitness),
    (Bracket(4, {(0, 1, 2): 1}), diag(1, 0, 1, 0), 507, 2000, [2, 2], SearchFailure),
    (h3, diag(0, 0, 0), 1, 2000, [3], SearchFailure),
    (h5, diag(1, -1, 1, -1, 0), 2, 2000, [2, 2, 1], SearchFailure),
    (h5, diag(1, -1, -1, 1, 0), 3, 2000, [2, 2, 1], SearchFailure),
    (h7, diag(1, -1, 1, -1, 1, -1, 0), 1, 2000, [3, 3, 1], SearchFailure),
]


@pytest.mark.parametrize("b, D, seed, budget, sizes, verdict", BLOCK_VERDICTS)
def test_block_search_verdict_classes(b, D, seed, budget, sizes, verdict):
    """Each search above keeps its verdict class.  A certified D gives a
    witness and a gate-failing D a failure that spent its whole budget;
    a class that moves is a finding about the search, not a tolerance."""
    if np.count_nonzero(D - np.diag(np.diag(D))):
        assert sizes == [b.dim]
    else:
        assert [len(blk) for blk in centralizer_blocks(np.diag(D))] == sizes
        if verdict is RnWitness:
            assert isinstance(certify_srn_nice(D, b), SrnCertificate)
    if verdict is SearchFailure:
        assert not necessary_condition(D, b) and not necessary_condition(-D, b)
    res = search_rn_metric(D, b, budget=budget, seed=seed)
    assert isinstance(res, verdict)
    if verdict is SearchFailure:
        assert res.evaluations == budget
    else:
        assert res.lambda_max < NEGATIVITY_THRESHOLD


def test_block_searches_load_no_scipy():
    """A search with two 3 x 3 centralizer blocks and one whose D is not
    diagonal build their triangular factors with numpy alone: neither
    loads any scipy module."""
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    code = ("import sys; import numpy as np; from rnlie import corpus, search_rn_metric; "
            "h7 = corpus('heisenberg', 7).bracket; h3 = corpus('heisenberg', 3).bracket; "
            "a = search_rn_metric(np.diag([31, 33, 31, 33, 33, 31, 64]) / 256, h7, seed=1); "
            "b = search_rn_metric(np.array([[-0.4, 0.3, 0.0], [0.0, 0.9, 0.0], "
            "[0.2, 0.0, 0.5]]), h3, seed=6); "
            "print(type(a).__name__, type(b).__name__); "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["RnWitness RnWitness", "[]"]


def test_metric_layout_packs_lower_triangles_row_by_row():
    """Block after block, each block's lower triangle row by row: a
    k x k block takes k(k + 1)/2 coordinates, and 1 x 1 blocks keep the
    torus layout, one coordinate each in block order."""
    diagonal, below, width = _metric_layout(((0, 2, 3), (1,), (4, 5)))
    assert width == 6 + 1 + 3
    assert [tuple(a.tolist()) for a in diagonal] == [(0, 2, 3, 1, 4, 5), (0, 2, 3, 1, 4, 5),
                                                     (0, 2, 5, 6, 7, 9)]
    assert [tuple(a.tolist()) for a in below] == [(2, 3, 3, 5), (0, 0, 2, 4), (1, 3, 4, 8)]
    torus = _metric_layout(((1,), (0,), (2,)))
    assert [a.tolist() for a in torus[0]] == [[1, 0, 2], [1, 0, 2], [0, 1, 2]]
    assert all(a.size == 0 for a in torus[1]) and torus[2] == 3


def _ql(h):
    """h = Q L with Q orthogonal and L lower triangular with a positive
    diagonal, from the QR decomposition of h with its rows and columns
    reversed."""
    q, r = np.linalg.qr(h[::-1, ::-1])
    sign = np.sign(np.diag(r))
    return (q * sign)[::-1, ::-1], (sign[:, None] * r)[::-1, ::-1]


@pytest.mark.parametrize("b, M, blocks", [
    (h7, H7_BLOCKS3, [(0, 2, 5), (1, 3, 4), (6,)]),
    (h3, _NON_DIAGONAL, [(0, 1, 2)]),
])
def test_triangular_factors_lose_no_metric(b, M, blocks):
    """Every factor with the search's blocks gives a metric that one of
    its triangular factors gives: for h = Q L, the metric (X, h) is the
    metric (Q^T X, L), and L, packed as log-diagonal and lower entries,
    is a factor _metric_factors builds.  Their top Ricci eigenvalues
    agree over 200 seeded draws."""
    n = b.dim
    rng = np.random.default_rng(29)
    (rows, cols, pos), (low, high, at), width = _metric_layout(tuple(blocks))
    hs, Xs, coords, QX = [], [], [], []
    for _ in range(200):
        h = np.zeros((n, n))
        for blk in blocks:
            h[np.ix_(blk, blk)] = rng.standard_normal((len(blk), len(blk)))
        X = rng.standard_normal(n)
        Q, L = _ql(h)
        assert np.allclose(Q @ L, h, rtol=0, atol=1e-13) and np.allclose(Q.T @ Q, np.eye(n))
        x = np.zeros(width)
        x[pos], x[at] = np.log(L[rows, cols]), L[low, high]
        hs.append(h)
        Xs.append(X)
        coords.append(x)
        QX.append(Q.T @ X)
    factors = _metric_factors(np.array(coords), blocks, n)
    assert np.allclose(factors, [_ql(h)[1] for h in hs], rtol=1e-14, atol=0)
    want = curvature._top_eigenvalues(M, b, np.array(Xs), np.array(hs))
    got = curvature._top_eigenvalues(M, b, np.array(QX), factors)
    assert np.isfinite(want).all()
    assert (np.abs(got - want) <= 1e-12 * np.abs(want)).all()


class TestMetricFactors:
    def test_rows_of_a_stack_keep_their_bits(self):
        """The metric search builds its triangular factors as stacks: each
        row reads the bits it reads alone, and a row whose diagonal
        overflows exp reads inf there, and inf at the evaluator."""
        blocks = [(0, 2), (1, 3), (4,)]
        xs = 0.8 * np.random.default_rng(4).standard_normal((25, 7))
        xs[3, :3] = [40.3, 0.8, 39.7]
        xs[7, :3] = [1e3, 0.0, 1e3]   # overflows
        factors = _metric_factors(xs, blocks, 5)
        assert factors[7, 0, 0] == factors[7, 2, 2] == np.inf and factors[7, 2, 0] == 0.0
        for k in range(len(xs)):
            assert factors[k].tobytes() == _metric_factors(xs[k:k + 1], blocks, 5)[0].tobytes()
        # h5 with diag(1, -1, 1, -1, 0), whose centralizer blocks these are
        M = np.diag([1.0, -1.0, 1.0, -1.0, 0.0])
        lam = curvature._top_eigenvalues(M, h5, np.zeros((25, 5)), factors)
        assert lam[7] == np.inf and np.isfinite(np.delete(lam, 7)).all()

    def test_one_by_one_blocks_give_diagonals(self):
        """With every block 1 x 1 the factors are the (K, n) diagonals:
        column i of the row is e^a of block (i,)'s coordinate, the bytes
        of np.exp on the packed rows when the blocks are in index order."""
        xs = 0.8 * np.random.default_rng(5).standard_normal((6, 3))
        d = _metric_factors(xs, [(0,), (1,), (2,)], 3)
        assert d.shape == (6, 3) and d.tobytes() == np.exp(xs).tobytes()
        assert np.array_equal(_metric_factors(xs, [(1,), (0,), (2,)], 3), np.exp(xs[:, [1, 0, 2]]))


class TestResultTypes:
    def test_certificate_validation(self):
        with pytest.raises(PreconditionError):
            SrnCertificate({}, Fraction(0), "NiceLP")
        with pytest.raises(PreconditionError):
            SrnCertificate({(0, 1, 2): -1}, Fraction(1), "NiceLP")

