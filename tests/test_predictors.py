"""Predictor tables: coefficients, table edges, Laplace forms, calibration target."""

import math

import mpmath
import numpy as np
import pytest

from auxzeta.predictors import (CRITICAL_CONSTANT_ALTERNATE,
                                CRITICAL_CONSTANT_DERIVED, exp_poly_integral,
                                predict_laplace_unweighted,
                                predict_laplace_weighted, predict_unweighted,
                                predict_weighted)
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
        p = predict_weighted(0.0)
        assert p.main_terms == ((2.0 / 3.0, 0.5, 0),)
        assert p.error_exponent == 0.25
        assert not p.log_factor_in_error

    def test_sigma_minus_one_coefficient(self):
        p = predict_weighted(-1.0)
        assert p.main_terms[0][0] == pytest.approx(2.0 / 9.0, rel=1e-15)
        assert p.error_exponent == 0.25

    def test_sigma_one(self):
        p = predict_weighted(1.0)
        coef, power, logp = p.main_terms[0]
        assert coef == pytest.approx(real_zeta(2.0).value / 2.0, rel=1e-12)
        assert (power, logp) == (1.0, 0)
        assert p.error_exponent == 0.5

    def test_critical_constants(self):
        p = predict_weighted(0.5)
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
        p = predict_weighted(0.75)
        powers = sorted(pw for _, pw, _ in p.main_terms)
        assert powers == [0.5, 0.75]
        assert p.error_exponent == 0.375


class TestUnweightedTable:
    def test_sigma_two_constant(self):
        p = predict_unweighted(2.0)
        assert p.main_terms[0][0] == pytest.approx(math.pi**4 / 90.0, rel=1e-12)
        assert p.error_exponent == -1.0

    def test_sigma_half(self):
        p = predict_unweighted(0.5)
        assert p.main_terms == ((0.5, 0.0, 1), (EULER_GAMMA - 0.5, 0.0, 0))
        assert p.error_exponent == -0.25
        assert p.log_factor_in_error

    def test_sigma_zero_coefficient(self):
        p = predict_unweighted(0.0)
        assert p.main_terms[0][0] == pytest.approx(2.0 / 3.0, rel=1e-15)
        assert p.main_terms[0][1] == 0.5

    def test_evaluate(self):
        p = predict_unweighted(0.5)
        want = 0.5 * math.log(T_REF / TWO_PI) + EULER_GAMMA - 0.5
        assert p.evaluate(T_REF) == pytest.approx(want, rel=1e-14)

    def test_sigma_three_halves(self):
        # 3 - 2 sigma = 0 here: only the shifted square root, which this
        # regime does not use, would divide by it
        p = predict_unweighted(1.5)
        assert p.main_terms == ((real_zeta(3.0).value, 0.0, 0),)
        assert p.error_exponent == -0.75
        assert not p.log_factor_in_error

    def test_evaluate_below_two_pi_is_error(self):
        for predict in (predict_weighted, predict_unweighted):
            with pytest.raises(ValueError):
                predict(0.0).evaluate(0.99 * TWO_PI)


class TestRegimes:
    def test_boundary_memberships(self):
        assert len(predict_weighted(0.25).main_terms) == 1
        assert len(predict_weighted(0.26).main_terms) == 2
        assert predict_weighted(2.0).error_exponent == 1.0
        assert predict_weighted(2.5).error_exponent == 1.5
        assert predict_unweighted(1.0).log_factor_in_error
        assert predict_unweighted(2.0).error_exponent == -1.0

    def test_error_below_main_growth(self):
        for sigma in (-2.0, -0.5, 0.0, 0.25, 0.4, 0.5, 0.8, 1.0, 1.7, 2.0, 3.0):
            for predict in (predict_weighted, predict_unweighted):
                p = predict(sigma)
                top = max(power for (_, power, _) in p.main_terms)
                assert p.error_exponent < top + 1.0
                # the O-term is lower order than the top main term over T
                assert p.error_exponent < max(1.0, top + 1.0)


def _zeta(s):
    return real_zeta(s).value


# each table per region and at every edge, written out as the paper's closed
# forms: sigma -> (main terms, error exponent, sqrt(log T) in the error)
WEIGHTED = {
    -1.0: (((2.0 / 9.0, 0.5, 0),), 0.25, False),
    0.25: (((4.0 / 3.0, 0.5, 0),), 0.25, False),
    0.375: (((8.0 / 3.0, 0.5, 0), (_zeta(0.75) / 1.375, 0.375, 0)), 0.25, False),
    0.5: (((1.0 / 3.0, 0.5, 1), (2.0 * (3.0 * EULER_GAMMA - 1.0) / 9.0, 0.5, 0)), 0.25, True),
    0.75: (((_zeta(1.5) / 1.75, 0.75, 0), (-4.0 / 3.0, 0.5, 0)), 0.375, False),
    1.0: (((math.pi**2 / 12.0, 1.0, 0),), 0.5, False),
    1.5: (((_zeta(3.0) / 2.5, 1.5, 0),), 0.75, False),
    2.0: (((math.pi**4 / 270.0, 2.0, 0),), 1.0, False),
    3.0: (((_zeta(6.0) / 4.0, 3.0, 0),), 2.0, False),
}
UNWEIGHTED = {
    -1.0: (((2.0 / 15.0, 1.5, 0),), 1.25, False),
    0.25: (((1.6, 0.25, 0),), 0.0, False),
    0.375: (((32.0 / 9.0, 0.125, 0), (_zeta(0.75), 0.0, 0)), -0.125, False),
    0.5: (((0.5, 0.0, 1), (EULER_GAMMA - 0.5, 0.0, 0)), -0.25, True),
    0.75: (((_zeta(1.5), 0.0, 0), (-8.0 / 3.0, -0.25, 0)), -0.375, False),
    1.0: (((math.pi**2 / 6.0, 0.0, 0),), -0.5, True),
    1.5: (((_zeta(3.0), 0.0, 0),), -0.75, False),
    2.0: (((math.pi**4 / 90.0, 0.0, 0),), -1.0, False),
    3.0: (((_zeta(6.0), 0.0, 0),), -1.0, False),
}


@pytest.mark.parametrize("predict,table", [(predict_weighted, WEIGHTED),
                                           (predict_unweighted, UNWEIGHTED)],
                         ids=["weighted", "unweighted"])
@pytest.mark.parametrize("sigma", sorted(WEIGHTED))
def test_table_matches_closed_forms(predict, table, sigma):
    terms, exponent, log_factor = table[sigma]
    p = predict(sigma)
    assert [(pw, q) for _, pw, q in p.main_terms] == [(pw, q) for _, pw, q in terms]
    assert [c for c, _, _ in p.main_terms] == pytest.approx([c for c, _, _ in terms],
                                                            rel=1e-14)
    assert (p.error_exponent, p.log_factor_in_error) == (exponent, log_factor)


def test_critical_constant_in_the_weight_exponent():
    # both tables' sigma = 1/2 constants are (gamma - 1/(2(a+1)))/(a+1)
    for predict, a in ((predict_weighted, 0.5), (predict_unweighted, 0.0)):
        const = predict(0.5).main_terms[1][0]
        assert abs((EULER_GAMMA - 0.5 / (a + 1.0)) / (a + 1.0) - const) <= math.ulp(const)
    assert predict_weighted(0.5).main_terms[1][0] == CRITICAL_CONSTANT_DERIVED


class TestLaplacePredictors:
    def test_weighted_substitutions(self):
        assert predict_laplace_weighted(-1.0, 0.5) == pytest.approx(1.0 / 3.0, rel=1e-15)
        assert predict_laplace_weighted(0.0, 0.01) == pytest.approx(
            0.02**-1.5, rel=1e-15)

    def test_weighted_scaling_law(self):
        # sigma <= 1/4: the square-root term alone (above, zeta(2 sigma) joins)
        for sigma in (-2.0, 0.0):
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

    @pytest.mark.parametrize("sigma", [-2.0, -1.0, -0.5, 0.0, 0.2, 0.25])
    def test_matches_closed_forms(self, sigma):
        # below 1/4 each table is its square-root term, whose transform has
        # a closed form
        for eps in (0.5, 0.05, 0.02, 0.01, 0.003):
            weighted = (2.0 * eps) ** -1.5 / (1.0 - 2.0 * sigma)
            unweighted = (0.5 / eps) * (TWO_PI * eps) ** (sigma - 0.5) \
                * math.gamma(0.5 - sigma)
            assert predict_weighted(sigma).laplace(eps) == pytest.approx(weighted, rel=1e-15)
            assert predict_unweighted(sigma).laplace(eps) == pytest.approx(
                unweighted, rel=1e-15)

    def test_critical_log_terms(self):
        # sigma = 1/2: psi(5/2) = 8/3 - gamma - 2 log 2 and psi(2) = 1 - gamma
        for eps in (0.05, 0.01):
            L = 8.0 / 3.0 - EULER_GAMMA - 2.0 * math.log(2.0) - math.log(TWO_PI * eps)
            weighted = TWO_PI ** -0.5 * math.gamma(2.5) * eps ** -1.5 \
                * (L / 3.0 + CRITICAL_CONSTANT_DERIVED)
            L = 1.0 - EULER_GAMMA - math.log(TWO_PI * eps)
            unweighted = (0.5 * L + EULER_GAMMA - 0.5) / eps
            assert predict_laplace_weighted(0.5, eps) == pytest.approx(weighted, rel=1e-15)
            assert predict_laplace_unweighted(0.5, eps) == pytest.approx(unweighted, rel=1e-15)

    def test_epsilon_must_be_positive(self):
        for predict in (predict_laplace_weighted, predict_laplace_unweighted):
            for eps in (0.0, -0.5):
                with pytest.raises(ValueError):
                    predict(0.5, eps)


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

    @pytest.mark.parametrize("a", [0.5, 1.0, 1.5, 2.0])
    @pytest.mark.parametrize("eps", [0.01, 0.05, 0.5, 2.0])
    def test_against_mp_quadrature(self, a, eps):
        # criterion 6 calibrates a node sum good to ~1.7e-15 against this
        # value, so its own error must sit well below that
        with mpmath.workdps(40):
            want = mpmath.quad(lambda t: t**a * mpmath.exp(-eps * t), [1, mpmath.inf])
            rel = abs(mpmath.mpf(exp_poly_integral(a, eps)) - want) / want
        assert rel <= 2.5e-16

    def test_domain_guards(self):
        with pytest.raises(ValueError):
            exp_poly_integral(-1.0, 0.1)
        for eps in (0.0, -0.5):
            with pytest.raises(ValueError):
                exp_poly_integral(1.0, eps)
