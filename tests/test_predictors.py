"""Predictor tables: coefficients, regimes, Laplace forms, series identity."""

import math

import numpy as np
import pytest

from auxzeta.errors import RangeExceededError
from auxzeta.predictors import (CRITICAL_CONSTANT_ALTERNATE,
                                CRITICAL_CONSTANT_DERIVED, UNWEIGHTED_MEAN,
                                WEIGHTED_MEAN, exp_poly_integral,
                                predict_laplace_unweighted,
                                predict_laplace_weighted, predict_unweighted,
                                predict_weighted, regime_of)
from auxzeta.special_functions import EULER_GAMMA, real_zeta

TWO_PI = 2.0 * math.pi
T_REF = TWO_PI * 1.0e3


def _gl_quad(f, a, b, panels=400):
    """Plain order-10 composite Gauss-Legendre, test-local oracle."""
    x, w = np.polynomial.legendre.leggauss(10)
    edges = np.linspace(a, b, panels + 1)
    mid = 0.5 * (edges[:-1] + edges[1:])
    hw = 0.5 * (edges[1:] - edges[:-1])
    t = mid[:, None] + hw[:, None] * x[None, :]
    return float(np.sum(f(t) * w[None, :] * hw[:, None]))


class TestWeightedTable:
    def test_sigma_zero(self):
        p = predict_weighted(0.0, T_REF)
        assert p.main_terms == ((2.0 / 3.0, 0.5, 0),)
        assert p.error_exponent == 0.25
        assert not p.log_factor_in_error

    def test_sigma_minus_one_coefficient(self):
        p = predict_weighted(-1.0, T_REF)
        assert p.main_terms[0][0] == pytest.approx(2.0 / 9.0, rel=1e-15)
        assert p.error_exponent == 0.25

    def test_sigma_one(self):
        p = predict_weighted(1.0, T_REF)
        coef, power, logp = p.main_terms[0]
        assert coef == pytest.approx(real_zeta(2.0).value / 2.0, rel=1e-12)
        assert (power, logp) == (1.0, 0)
        assert p.error_exponent == 0.5

    def test_critical_constants(self):
        p = predict_weighted(0.5, T_REF)
        assert p.main_terms[0] == (1.0 / 3.0, 0.5, 1)
        assert p.main_terms[1][0] == CRITICAL_CONSTANT_DERIVED
        assert CRITICAL_CONSTANT_ALTERNATE == pytest.approx(
            2.0 * (3.0 * EULER_GAMMA - 4.0) / 9.0, rel=1e-15)
        assert CRITICAL_CONSTANT_DERIVED - CRITICAL_CONSTANT_ALTERNATE == \
            pytest.approx(2.0 / 3.0, rel=1e-14)

    def test_critical_constant_rederivation(self):
        # int_0^U sqrt(u) (log(u)/2 + g) du = U^{3/2}(log(U)/3 + 2(3g-1)/9),
        # checked by quadrature (substituted u = v^2 to keep the integrand
        # smooth at zero)
        for U in (4.0, 9.0):
            num = _gl_quad(lambda v: 2.0 * v**2 * (np.log(v) + EULER_GAMMA),
                           0.0, math.sqrt(U))
            want = U**1.5 * (math.log(U) / 3.0 + CRITICAL_CONSTANT_DERIVED)
            assert num == pytest.approx(want, rel=1e-10)

    def test_mid_band_has_both_terms(self):
        p = predict_weighted(0.75, T_REF)
        powers = sorted(pw for _, pw, _ in p.main_terms)
        assert powers == [0.5, 0.75]
        assert p.error_exponent == 0.375


class TestUnweightedTable:
    def test_sigma_two_constant(self):
        p = predict_unweighted(2.0, T_REF)
        assert p.main_terms[0][0] == pytest.approx(math.pi**4 / 90.0, rel=1e-12)
        assert p.error_exponent == -1.0

    def test_sigma_half(self):
        p = predict_unweighted(0.5, T_REF)
        assert p.main_terms == ((0.5, 0.0, 1), (EULER_GAMMA - 0.5, 0.0, 0))
        assert p.error_exponent == -0.25
        assert p.log_factor_in_error

    def test_sigma_zero_coefficient(self):
        p = predict_unweighted(0.0, T_REF)
        assert p.main_terms[0][0] == pytest.approx(2.0 / 3.0, rel=1e-15)
        assert p.main_terms[0][1] == 0.5

    def test_evaluate(self):
        p = predict_unweighted(0.5, T_REF)
        want = 0.5 * math.log(T_REF / TWO_PI) + EULER_GAMMA - 0.5
        assert p.evaluate(T_REF) == pytest.approx(want, rel=1e-14)


class TestRegimes:
    def test_boundary_memberships(self):
        assert regime_of(0.25, WEIGHTED_MEAN) == "sqrt_main"
        assert regime_of(2.0, UNWEIGHTED_MEAN) == "zeta_main_fast_error"
        assert regime_of(-3.0, WEIGHTED_MEAN) == "negative_sqrt"
        assert regime_of(1.0, WEIGHTED_MEAN) == "zeta_main"
        assert regime_of(2.0, WEIGHTED_MEAN) == "zeta_main"
        assert regime_of(2.5, WEIGHTED_MEAN) == "zeta_main_wide_error"
        assert regime_of(1.0, UNWEIGHTED_MEAN) == "zeta_edge_log"

    def test_error_below_main_growth(self):
        for sigma in (-2.0, -0.5, 0.0, 0.25, 0.4, 0.5, 0.8, 1.0, 1.7, 2.0, 3.0):
            for predict in (predict_weighted, predict_unweighted):
                p = predict(sigma, T_REF)
                top = max(power for (_, power, _) in p.main_terms)
                assert p.error_exponent < top + 1.0
                # the O-term is lower order than the top main term over T
                assert p.error_exponent < max(1.0, top + 1.0)


class TestLaplacePredictors:
    def test_weighted_substitutions(self):
        assert predict_laplace_weighted(-1.0, 0.5) == pytest.approx(1.0 / 3.0, rel=1e-15)
        assert predict_laplace_weighted(0.0, 0.01) == pytest.approx(
            0.02**-1.5, rel=1e-15)

    def test_weighted_scaling_law(self):
        for sigma in (-2.0, 0.0, 0.3):
            v1 = predict_laplace_weighted(sigma, 0.08)
            v2 = predict_laplace_weighted(sigma, 0.02)
            assert v2 == pytest.approx(8.0 * v1, rel=1e-13)

    def test_unweighted_substitution(self):
        got = predict_laplace_unweighted(-0.5, 0.1)
        assert got == pytest.approx(5.0 / (0.2 * math.pi), rel=1e-12)

    def test_sigma_zero_coincidence(self):
        for eps in (0.5, 0.05, 0.003):
            assert predict_laplace_unweighted(0.0, eps) == pytest.approx(
                predict_laplace_weighted(0.0, eps), rel=1e-13)

    def test_unweighted_homogeneity(self):
        sigma = -1.5
        v1 = predict_laplace_unweighted(sigma, 0.1)
        v2 = predict_laplace_unweighted(sigma, 0.025)
        assert v2 / v1 == pytest.approx(4.0 ** (1.5 - sigma), rel=1e-12)

    def test_domain_guard(self):
        with pytest.raises(RangeExceededError):
            predict_laplace_weighted(0.5, 0.1)
        with pytest.raises(RangeExceededError):
            predict_laplace_unweighted(0.7, 0.1)


class TestExpPolyIntegral:
    def test_limit_toward_zero_power(self):
        got = exp_poly_integral(1e-9, 0.3)
        assert got == pytest.approx(math.exp(-0.3) / 0.3, abs=1e-7)

    def test_by_parts_value(self):
        # int_1^inf t e^{-et} dt = (1+e) e^{-e} / e^2
        got = exp_poly_integral(1.0, 0.3)
        assert got == pytest.approx(1.3 * math.exp(-0.3) / 0.09, rel=1e-13)

    def test_against_quadrature_oracle(self):
        for a in (0.5, 1.0, 1.5, 2.0):
            for eps in (0.05, 0.1, 0.5):
                upper = max(400.0, 60.0 / eps)
                want = _gl_quad(lambda t: t**a * np.exp(-eps * t), 1.0, upper,
                                panels=4000)
                got = exp_poly_integral(a, eps)
                assert got == pytest.approx(want, rel=1e-8), (a, eps)

    def test_domain_guards(self):
        with pytest.raises(ValueError):
            exp_poly_integral(-1.0, 0.1)
        with pytest.raises(RangeExceededError):
            exp_poly_integral(1.0, 2.0)
