"""Degeneration curves, limits, and curvature transfer."""

from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest

from rnlie import degeneration
from rnlie.brackets import BasisChange, Bracket, act, validate_jacobi
from rnlie.corpus import corpus
from rnlie.curvature import koszul_oracle
from rnlie.degeneration import (RICCI_NEGATIVE, SCALAR_NEGATIVE,
                                DegenerationCurve, PinchingFailure,
                                PinchingResult, diagonal_power_curve,
                                face_steering_curve, heintze_curve,
                                heintze_degeneration, limit_bracket,
                                pinching_transfer, trajectory)
from rnlie.errors import NumericalError, PreconditionError

h3 = corpus("heisenberg", 3).bracket
t5 = corpus("tricky5").bracket
e3 = corpus("euclid3").bracket


class TestCurves:
    def test_exponent_count(self):
        with pytest.raises(PreconditionError):
            diagonal_power_curve(h3, (1, 0))

    @pytest.mark.parametrize("w", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_exponent_refused(self, w):
        # a NaN exponent is neither zero nor positive, so the closed form
        # would drop its constant and call the limit abelian
        with pytest.raises(PreconditionError, match="finite"):
            limit_bracket(diagonal_power_curve(h3, (w, 0, 0)))
        with pytest.raises(PreconditionError, match="finite"):
            DegenerationCurve(h3, (0, 0, w))

    def test_integer_exponent_past_float_range(self):
        c = diagonal_power_curve(h3, (10 ** 400, 0, 0))
        assert c.is_rational
        assert limit_bracket(c).is_zero()

    def test_exact_element(self):
        c = diagonal_power_curve(h3, (1, 0, -1))
        h = c.element(4)
        assert h.is_rational
        entries = [h.matrix[i][i] for i in range(3)]
        assert entries == [Fraction(4), Fraction(1), Fraction(1, 4)]

    def test_positive_parameter(self):
        with pytest.raises(PreconditionError):
            diagonal_power_curve(h3, (1, 0, 0)).element(0)


class TestLimits:
    def test_h3_collapses_to_abelian(self):
        lim = limit_bracket(diagonal_power_curve(h3, (1, 0, 0)))
        assert lim.is_zero() and lim.is_rational
        assert validate_jacobi(lim) == 0

    def test_graded_sources_are_fixed(self):
        f5 = corpus("filiform", 5).bracket
        assert limit_bracket(diagonal_power_curve(f5, (1, 1, 2, 3, 4))) == f5
        assert limit_bracket(diagonal_power_curve(t5, (1, 1, 2, 2, 3))) == t5

    def test_truncation_keeps_jacobi_exact(self):
        b = Bracket(4, {(0, 1, 2): 1, (0, 1, 3): 1, (0, 2, 3): 1})
        lim = limit_bracket(diagonal_power_curve(b, (1, 1, 2, 2)))
        assert lim.constants == {(0, 1, 2): Fraction(1), (0, 1, 3): Fraction(1)}
        assert validate_jacobi(lim) == 0

    def test_divergent_curve_rejected(self):
        with pytest.raises(NumericalError):
            limit_bracket(diagonal_power_curve(h3, (0, 0, 1)))


class TestFaceSteering:
    def test_edge_restriction(self):
        c = face_steering_curve(t5, ((0, 2, 4), (0, 3, 4)))
        assert c.exponents == (0, 1, 0, 0, 0)
        lim = limit_bracket(c)
        assert lim.constants == {(0, 2, 4): Fraction(1), (0, 3, 4): Fraction(1)}

    def test_vertex_restriction(self):
        lim = limit_bracket(face_steering_curve(t5, ((0, 1, 2),)))
        assert lim.constants == {(0, 1, 2): Fraction(1)}

    def test_full_face_is_identity_curve(self):
        full = tuple(sorted(t5.constants))
        assert limit_bracket(face_steering_curve(t5, full)) == t5

    def test_denominators_past_int64(self, monkeypatch):
        # a supporting functional whose denominators do not fit an int64
        # still gives integer exponents
        x = [Fraction(1, 2 ** 70), Fraction(1, 6), Fraction(0), Fraction(0), Fraction(0)]
        monkeypatch.setattr(degeneration._exactlp, "solve_lp",
                            lambda *args, **kwargs: SimpleNamespace(status="optimal", x=x))
        c = face_steering_curve(t5, ((0, 2, 4), (0, 3, 4)))
        assert c.exponents == (3, 2 ** 69, 0, 0, 0)

    def test_hull_diagonal_rejected(self):
        # the two triples span a diagonal of the weight rectangle, not
        # an edge, so no diagonal curve isolates them
        with pytest.raises(PreconditionError):
            face_steering_curve(t5, ((0, 1, 2), (0, 2, 4)))


class TestHeintze:
    def test_t1_is_standard_extension(self):
        mu = heintze_curve([[1, 0, 0], [0, 1, 0], [0, 0, 2]], h3, 1)
        assert mu.constants == {(1, 2, 3): Fraction(1), (0, 1, 1): Fraction(1),
                                (0, 2, 2): Fraction(1), (0, 3, 3): Fraction(2)}

    def test_generator_speed(self):
        mu = heintze_curve([[1, 0, 0], [0, 1, 0], [0, 0, 2]], h3, 10)
        assert mu.constants[(0, 3, 3)] == Fraction(20)
        assert mu.constants[(1, 2, 3)] == Fraction(1)

    def test_vector_is_its_diagonal(self):
        mu = heintze_curve([1, 1, 2], h3, 1)
        assert mu.constants == heintze_curve([[1, 0, 0], [0, 1, 0], [0, 0, 2]], h3, 1).constants
        assert mu.is_rational
        with pytest.raises(PreconditionError):
            heintze_curve([1, 1], h3, 1)

    def test_non_derivation_rejected(self):
        with pytest.raises(PreconditionError):
            heintze_curve(np.diag([1.0, 1.0, 5.0]), h3, 1)

    def test_basis_plane_curvatures_at_t10(self):
        mu = heintze_curve(np.diag([1.0, 1.0, 2.0]), h3, 10)
        sec = koszul_oracle(mu).sectional
        vals = sec[~np.isnan(sec)]
        assert vals.max() < 0

    def test_abelian_identity_gives_constant_curvature(self):
        ab3 = corpus("abelian", 3).bracket
        for t in (1.0, 3.0):
            mu = heintze_curve(np.eye(3), ab3, t)
            sec = koszul_oracle(mu).sectional
            vals = sec[~np.isnan(sec)]
            assert vals.max() < 0
            assert np.ptp(vals) < 1e-9
            assert abs(vals[0] + t * t) < 1e-9

    def test_conjugation_commutes_with_extension(self):
        g = [[1, 1, 0], [0, 1, 0], [0, 0, 1]]
        full = [[1, 0, 0, 0], [0, 1, 1, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
        D = [[1, 0, 0], [0, 1, 0], [0, 0, 2]]
        lhs = act(BasisChange(full), heintze_curve(D, h3, 3))
        rhs = heintze_curve(D, act(BasisChange(g), h3), 3)
        assert lhs == rhs

    def test_degeneration_limit_is_abelian_extension(self):
        hd = heintze_degeneration([[1, 0, 0], [0, 1, 0], [0, 0, 2]], h3)
        assert hd.source.is_rational
        lim = limit_bracket(hd)
        assert lim.constants == {(0, 1, 1): Fraction(1), (0, 2, 2): Fraction(1),
                                 (0, 3, 3): Fraction(2)}


class TestPinching:
    def test_heintze_transfers_at_identity(self):
        hd = heintze_degeneration(np.diag([1.0, 1.0, 2.0]), h3)
        res = pinching_transfer(hd, RICCI_NEGATIVE)
        assert isinstance(res, PinchingResult)
        assert res.index == 0 and res.t == 1.0
        assert abs(res.value + 4.5) < 1e-9
        assert np.allclose(res.metric, np.eye(4))

    def test_weak_derivation_needs_larger_parameter(self):
        weak = heintze_degeneration(np.diag([0.1, 0.1, 0.2]), h3)
        res = pinching_transfer(weak, RICCI_NEGATIVE)
        assert res.index == 2 and res.t == 4.0 and res.value < -1e-9

    def test_short_schedule_reports_failure(self):
        weak = heintze_degeneration(np.diag([0.1, 0.1, 0.2]), h3)
        res = pinching_transfer(weak, RICCI_NEGATIVE, t_max=2)
        assert isinstance(res, PinchingFailure)
        assert res.best_value > -1e-9

    def test_flat_source_becomes_scalar_negative(self):
        mc = diagonal_power_curve(e3, (1, 0, 1))
        assert set(limit_bracket(mc).constants) == {(0, 1, 2)}
        res = pinching_transfer(mc, SCALAR_NEGATIVE)
        assert res.index == 1 and res.t == 2.0
        assert abs(res.value + 9 / 32) < 1e-9

    def test_witness_metric_reproduces_value_on_source(self):
        mc = diagonal_power_curve(e3, (1, 0, 1))
        res = pinching_transfer(mc, SCALAR_NEGATIVE)
        rep = koszul_oracle(e3, metric=res.metric)
        assert abs(rep.scalar - res.value) < 1e-9

    def test_source_already_satisfying(self):
        b4 = diagonal_power_curve(e3, (1, 0, 1)).at(4)
        res = pinching_transfer(diagonal_power_curve(b4, (1, 0, 1)),
                                SCALAR_NEGATIVE)
        assert res.index == 0

    def test_predicate_must_hold_at_limit(self):
        mc = diagonal_power_curve(e3, (1, 0, 1))
        with pytest.raises(PreconditionError):
            pinching_transfer(mc, RICCI_NEGATIVE)
        collapse = diagonal_power_curve(h3, (1, 0, 0))
        with pytest.raises(PreconditionError):
            pinching_transfer(collapse, SCALAR_NEGATIVE)

    def test_unknown_predicate(self):
        with pytest.raises(PreconditionError):
            pinching_transfer(diagonal_power_curve(e3, (1, 0, 1)), "Flat")


class TestTrajectory:
    def test_milnor_log_approaches_limit_values(self):
        rows = trajectory(diagonal_power_curve(e3, (1, 0, 1)), t_max=2 ** 10)
        assert rows[0].scalar == 0.0
        assert abs(rows[-1].scalar + 0.5) < 1e-3
        assert abs(rows[-1].lambda_max - 0.5) < 1e-3
        assert abs(rows[-1].norm - np.sqrt(2)) < 1e-3
        scs = [r.scalar for r in rows]
        assert all(b <= a + 1e-12 for a, b in zip(scs, scs[1:]))

    def test_lambda_continuity_in_parameter(self):
        c = diagonal_power_curve(e3, (1, 0, 1))
        vals = [koszul_oracle(c.at(t)).scalar for t in (3.0, 3.01)]
        assert abs(vals[0] - vals[1]) < 0.05
