"""Bound-suite oracles: oscillatory integrals, power sums, double sums."""

import math
import time

import mpmath
import numpy as np
import pytest

from auxzeta import bound_checks
from auxzeta.bound_checks import (PRODUCT_KIND, QUOTIENT_KIND,
                                  double_sum_growth, osc_bound_check,
                                  osc_integral, power_sum_asymptotic,
                                  power_sum_check, power_sum_partial,
                                  random_osc_sweep)
from auxzeta.errors import BudgetExceededError
from auxzeta.special_functions import EULER_GAMMA, real_zeta


class TestOscIntegral:
    def test_full_periods_vanish(self):
        assert osc_integral(1.0, 2.0, 0.0, math.pi) == pytest.approx(0.0, abs=1e-10)

    def test_by_parts_closed_form(self):
        # int_1^2 t cos(10 t) dt = [t sin(10t)/10 + cos(10t)/100]_1^2
        want = (2.0 * math.sin(20.0) - math.sin(10.0)) / 10.0 \
            + (math.cos(20.0) - math.cos(10.0)) / 100.0
        assert osc_integral(1.0, 2.0, 1.0, 10.0) == pytest.approx(want, abs=1e-10)

    def test_alpha_zero_closed_form(self):
        a, b, beta = 0.3, 7.1, 43.7
        want = (math.sin(beta * b) - math.sin(beta * a)) / beta
        assert osc_integral(a, b, 0.0, beta) == pytest.approx(want, abs=1e-10)

    def test_bound_arithmetic(self):
        assert abs(osc_integral(1.0, 4.0, 2.0, 5.0)) <= 3.0 / 5.0 * 16.0

    def test_input_validation(self):
        with pytest.raises(ValueError):
            osc_integral(2.0, 1.0, 0.0, 1.0)
        with pytest.raises(ValueError):
            osc_integral(-1.0, 1.0, 0.0, 1.0)
        with pytest.raises(ValueError):
            osc_integral(1.0, 2.0, 0.0, 0.0)

    def test_stops_at_roundoff(self, monkeypatch):
        # one pair of the weighted sigma = 2 cross term at T = 2pi*1000:
        # successive passes differ by roundoff, 1-3 eps of the sum of the
        # term magnitudes, which is above the relative tolerance; doubling
        # until the tolerance is met by chance takes 1,307,136 panels
        panels = []
        passes = bound_checks._osc_panels

        def recording(a, b, alpha, beta, n_panels):
            panels.append(n_panels)
            return passes(a, b, alpha, beta, n_panels)
        monkeypatch.setattr(bound_checks, "_osc_panels", recording)
        two_pi = 2.0 * math.pi
        a, b, beta = two_pi * 21 * 21, two_pi * 1000.0, math.log(21.0)
        got = osc_integral(a, b, 2.0, beta)
        assert max(panels) < 100_000
        with mpmath.workdps(40):
            B = mpmath.mpf(beta)

            def antiderivative(t):
                t = mpmath.mpf(t)
                return (t * t * mpmath.sin(B * t) / B + 2 * t * mpmath.cos(B * t) / B**2
                        - 2 * mpmath.sin(B * t) / B**3)
            want = float(antiderivative(b) - antiderivative(a))
        assert abs(got - want) <= 1e-9 * abs(want)


class TestOscBound:
    def test_randomized_sweep(self):
        checks = random_osc_sweep(100, seed=7)
        assert all(c.ratio <= 1.0 for c in checks)

    def test_alpha_zero_large_beta_ratio(self):
        a, b, beta = 1.0, 2.0, 400.0
        chk = osc_bound_check(a, b, 0.0, beta)
        want = abs(math.sin(beta * b) - math.sin(beta * a)) / 3.0
        assert chk.ratio == pytest.approx(want, abs=1e-8)
        assert chk.ratio <= 2.0 / 3.0

    def test_degenerate_interval(self):
        chk = osc_bound_check(1.0, 1.0 + 1e-9, 1.5, 3.0)
        assert chk.lhs < 1e-8
        assert chk.ratio < 1e-8


class TestPowerSums:
    def test_harmonic_ten(self):
        # direct scalar oracle: H_10
        want = sum(1.0 / n for n in range(1, 11))
        assert power_sum_partial(10.0, 0.5) == pytest.approx(want, rel=1e-14)
        assert want == pytest.approx(2.9289682540, abs=1e-9)

    def test_asymptotic_critical_case(self):
        assert power_sum_asymptotic(10.0, 0.5) == pytest.approx(
            math.log(10.0) + EULER_GAMMA, rel=1e-14)
        assert power_sum_asymptotic(10.0, 0.5) == pytest.approx(2.8798007579, abs=1e-9)

    def test_sigma_one_residual(self):
        # sum n^-2 = zeta(2) - 1/x + O(x^-2): scaled residual stays bounded
        z2 = real_zeta(2.0).value
        for x in (1.0e3, 1.0e4, 1.0e5, 1.0e6):
            partial = power_sum_partial(x, 1.0)
            assert abs(partial - (z2 - 1.0 / x)) <= 2.0 / x**2 * x  # 2/x scale
            assert power_sum_check(x, 1.0).ratio <= 2.0

    def test_case_selection(self):
        # sigma <= 0 must not include the zeta constant
        x = 50.0
        assert power_sum_asymptotic(x, -1.0) == pytest.approx(x**3 / 3.0, rel=1e-12)
        got = power_sum_asymptotic(x, 1.0)
        assert got == pytest.approx(real_zeta(2.0).value - 1.0 / x, rel=1e-12)

    def test_budget(self):
        with pytest.raises(BudgetExceededError):
            power_sum_partial(1.0e9, 1.0)

    @pytest.mark.parametrize("x, sigma", [(1.0e4, 2.0), (1.0e5, 2.0), (6000.0, 1.75)])
    def test_extended_residual_matches_euler_maclaurin(self, x, sigma):
        # both extended-precision branches: fixed-point sum (2 sigma = 4) and
        # mp terms (2 sigma = 3.5); at integer x the scaled residual is
        # 1/2 - a/(12x) + a(a+1)(a+2)/(720x^3) + O(x^-5), a = 2 sigma
        a = 2.0 * sigma
        want = 0.5 - a / (12.0 * x) + a * (a + 1.0) * (a + 2.0) / (720.0 * x**3)
        chk = power_sum_check(x, sigma)
        assert chk.inputs["residual"] * x**a == pytest.approx(want, abs=1e-12)

    def test_extended_budget_fails_fast(self):
        t0 = time.perf_counter()
        with pytest.raises(BudgetExceededError):
            power_sum_check(2.5e7, 2.0)
        assert time.perf_counter() - t0 < 0.1


class TestDoubleSums:
    def test_single_pair(self):
        # x=2 leaves only (m,n)=(1,2)
        for sigma in (-1.0, 2.0):
            chk = double_sum_growth(2.0, sigma, PRODUCT_KIND)
            want = 2.0 ** (-sigma) / math.log(2.0)
            assert chk.lhs == pytest.approx(want, rel=1e-12)

    def test_needs_a_pair(self):
        # below x = 2 there is no pair and the envelope's log x is 0 or less
        for x in (1.0, 1.5):
            with pytest.raises(ValueError, match="x >= 2"):
                double_sum_growth(x, 0.5, PRODUCT_KIND)

    def test_quotient_requires_negative_sigma(self):
        with pytest.raises(ValueError):
            double_sum_growth(100.0, 0.5, QUOTIENT_KIND)

    def test_quotient_weights_in_range(self):
        # m^-sigma is formed on its own, so it must not overflow where the
        # quotients (n/m)^sigma would not
        assert math.isfinite(double_sum_growth(3000.0, -80.0, QUOTIENT_KIND).lhs)
        with pytest.raises(ValueError, match="leave binary64"):
            double_sum_growth(3000.0, -90.0, QUOTIENT_KIND)

    def test_quotient_ratio_trend(self):
        ratios = [double_sum_growth(float(x), -1.0, QUOTIENT_KIND).ratio
                  for x in (250, 500, 1000, 2000)]
        assert all(math.isfinite(r) for r in ratios)
        for a, b in zip(ratios, ratios[1:]):
            assert 0.2 <= a / b <= 5.0

    def test_product_constant_case(self):
        # sigma = 2: the sum converges (O(1/x) tail), so successive doublings
        # move lhs by shrinking amounts
        vals = [double_sum_growth(float(x), 2.0, PRODUCT_KIND).lhs
                for x in (250, 500, 1000, 2000)]
        diffs = [abs(b - a) for a, b in zip(vals, vals[1:])]
        assert all(b < a for a, b in zip(diffs, diffs[1:]))
        assert diffs[-1] < 1e-3 * vals[-1]

    @pytest.mark.parametrize("kind,sigma", [(QUOTIENT_KIND, -1.0), (QUOTIENT_KIND, -2.0),
                                            (PRODUCT_KIND, 0.5), (PRODUCT_KIND, 1.0),
                                            (PRODUCT_KIND, 2.0)])
    def test_matches_mp_reference(self, kind, sigma):
        # the five criterion-7 cases against a 30-digit sum over all 19,900
        # pairs of N = 200; x = 200.5 floors to the same N
        N = 200
        with mpmath.workdps(30):
            logs = [mpmath.log(k) for k in range(1, N + 1)]
            b = [mpmath.power(k, -sigma) for k in range(1, N + 1)]
            a = [mpmath.power(k, sigma) for k in range(1, N + 1)] \
                if kind == QUOTIENT_KIND else b
            want = mpmath.fsum(
                a[n] * mpmath.fsum(b[m] / (logs[n] - logs[m]) for m in range(n))
                for n in range(1, N))
            for x in (200.0, 200.5):
                got = double_sum_growth(x, sigma, kind).lhs
                assert abs(got - want) <= 1e-15 * abs(want), (x, got, want)

    def test_budget(self):
        with pytest.raises(BudgetExceededError):
            double_sum_growth(5000.0, 1.0, PRODUCT_KIND)
        # refused before any work: one past the cap fails at once
        t0 = time.perf_counter()
        with pytest.raises(BudgetExceededError):
            double_sum_growth(3001.0, 1.0, PRODUCT_KIND)
        assert time.perf_counter() - t0 < 0.1
        # the cap itself still runs
        chk = double_sum_growth(3000.0, 1.0, PRODUCT_KIND)
        assert math.isfinite(chk.lhs) and chk.lhs > 0.0

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown kind"):
            double_sum_growth(100.0, 1.0, "nonsense")
        # the kind is checked before the budget, so before any block is built
        with pytest.raises(ValueError, match="unknown kind"):
            double_sum_growth(1.0e9, 1.0, "nonsense")
