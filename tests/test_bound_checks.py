"""Bound-suite oracles: oscillatory integrals, power sums, double sums."""

import functools
import math
import time

import mpmath
import numpy as np
import pytest

from auxzeta import bound_checks
from auxzeta.bound_checks import (PRODUCT_KIND, QUOTIENT_KIND,
                                  double_sum_growth, double_sum_table,
                                  osc_bound_check,
                                  osc_integral, power_sum_asymptotic,
                                  power_sum_check, power_sum_partial,
                                  random_osc_sweep)
from auxzeta.errors import BudgetExceededError
from auxzeta.special_functions import EULER_GAMMA, real_zeta


class TestOscIntegral:
    def test_full_periods_vanish(self):
        assert osc_integral(1.0, 2.0, 0.0, math.pi).value == pytest.approx(0.0, abs=1e-10)

    def test_by_parts_closed_form(self):
        # int_1^2 t cos(10 t) dt = [t sin(10t)/10 + cos(10t)/100]_1^2
        want = (2.0 * math.sin(20.0) - math.sin(10.0)) / 10.0 \
            + (math.cos(20.0) - math.cos(10.0)) / 100.0
        assert osc_integral(1.0, 2.0, 1.0, 10.0).value == pytest.approx(want, abs=1e-10)

    def test_alpha_zero_closed_form(self):
        a, b, beta = 0.3, 7.1, 43.7
        want = (math.sin(beta * b) - math.sin(beta * a)) / beta
        assert osc_integral(a, b, 0.0, beta).value == pytest.approx(want, abs=1e-10)

    def test_bound_arithmetic(self):
        assert abs(osc_integral(1.0, 4.0, 2.0, 5.0).value) <= 3.0 / 5.0 * 16.0

    def test_input_validation(self):
        with pytest.raises(ValueError):
            osc_integral(2.0, 1.0, 0.0, 1.0)
        with pytest.raises(ValueError):
            osc_integral(-1.0, 1.0, 0.0, 1.0)
        with pytest.raises(ValueError):
            osc_integral(1.0, 2.0, 0.0, 0.0)

    def test_stops_at_roundoff(self):
        # one pair of the weighted sigma = 2 cross term at T = 2pi*1000,
        # where the terms are 1e6 times the integral: the phase of each
        # panel is reduced in extended precision, so roundoff stays far
        # below 1e-9 relative on a mesh of (b - a)|beta|/pi panels
        two_pi = 2.0 * math.pi
        a, b, beta = two_pi * 21 * 21, two_pi * 1000.0, math.log(21.0)
        got = osc_integral(a, b, 2.0, beta)
        assert got.terms_used // 8 < 5_000
        want = float(_by_parts(a, b, 2, beta))
        assert abs(got.value - want) <= 1e-9 * abs(want)
        assert abs(got.value - want) <= got.abs_error_bound

    @pytest.mark.parametrize("alpha", [1, 2])
    def test_cross_term_pairs_within_bound(self, alpha):
        # every pair of the weighted cross term at T = 2pi*1000 against the
        # closed-form antiderivative in 40-digit arithmetic
        two_pi = 2.0 * math.pi
        T = two_pi * 1000.0
        for n in range(2, 32):
            lo = two_pi * n * n
            for m in range(1, n):
                beta = math.log(n / m)
                got = osc_integral(lo, T, float(alpha), beta)
                want = _by_parts(lo, T, alpha, beta)
                assert abs(got.value - float(want)) <= got.abs_error_bound, (n, m)

    def test_sweep_within_bound(self):
        # criterion 7's seeded tuples, and the steepest power near 0, against
        # int t^alpha e^{i beta t} dt = (-i beta)^{-alpha-1}
        # (Gamma(alpha+1, -i beta a) - Gamma(alpha+1, -i beta b)) at 40 digits
        rng = np.random.default_rng(20250808)
        cases = [(0.1, 5.0, -3.0, 0.7), (0.1, 99.0, -3.0, 37.0)]
        for _ in range(100):
            a = float(rng.uniform(0.1, 99.0))
            b = float(a + rng.uniform(0.01, 100.0 - a))
            alpha = float(rng.uniform(-3.0, 3.0))
            beta = float(rng.uniform(0.01, 50.0) * rng.choice([-1.0, 1.0]))
            cases.append((a, b, alpha, beta))
        with mpmath.workdps(40):
            for a, b, alpha, beta in cases:
                got = osc_integral(a, b, alpha, beta)
                z = -1j * abs(mpmath.mpf(beta))
                p = mpmath.mpf(alpha) + 1
                want = mpmath.re(z ** -p * mpmath.gammainc(p, z * a, z * b))
                assert abs(got.value - float(want)) <= got.abs_error_bound, (a, b, alpha, beta)

    def test_mesh_is_fixed_by_inputs(self):
        # one pass of 8 nodes a panel, the panels set by (a, b, beta) alone:
        # equal panels of width <= pi/|beta| above 4pi/|beta|, and below it a
        # geometric mesh of ratio <= 5/4
        for alpha in (-3.0, 0.0, 2.5):
            assert osc_integral(10.0, 60.0, alpha, -20.0).terms_used == 8 * 319
            assert osc_integral(0.1, 1.0, alpha, 1.0).terms_used == 8 * 11


def _by_parts(a, b, alpha, beta):
    """int_a^b t^alpha cos(beta t) dt for alpha in {1, 2} at 40 digits."""
    with mpmath.workdps(40):
        B = mpmath.mpf(beta)

        def antiderivative(t):
            t = mpmath.mpf(t)
            s, c = mpmath.sin(B * t), mpmath.cos(B * t)
            if alpha == 1:
                return t * s / B + c / B**2
            return t * t * s / B + 2 * t * c / B**2 - 2 * s / B**3
        return antiderivative(b) - antiderivative(a)


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

    def test_error_bound_recorded(self):
        chk = osc_bound_check(1.0, 4.0, 2.0, 5.0)
        assert chk.inputs["error_bound"] == osc_integral(1.0, 4.0, 2.0, 5.0).abs_error_bound
        assert 0.0 < chk.inputs["error_bound"] < 1e-12 * chk.lhs


class TestPowerSums:
    def test_harmonic_ten(self):
        # direct scalar oracle: H_10
        want = sum(1.0 / n for n in range(1, 11))
        assert power_sum_partial(10.0, 0.5) == pytest.approx(want, rel=1e-14)
        assert want == pytest.approx(2.9289682540, abs=1e-9)

    def test_asymptotic_critical_case(self):
        assert power_sum_asymptotic(10.0, 0.5).value == pytest.approx(
            math.log(10.0) + EULER_GAMMA, rel=1e-14)
        assert power_sum_asymptotic(10.0, 0.5).value == pytest.approx(2.8798007579, abs=1e-9)

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
        assert power_sum_asymptotic(x, -1.0).value == pytest.approx(x**3 / 3.0, rel=1e-12)
        got = power_sum_asymptotic(x, 1.0).value
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

    @pytest.mark.parametrize("sigma", [-1.0, 0.25, 0.5, 1.0, 1.75, 2.0])
    def test_main_terms_within_bound(self, sigma):
        # against the main terms at 30 digits; the bound stays within 1e-13
        # of the value, so it still says something
        for x in (1.0e3, 1.0e6, 2.0e6):
            got = power_sum_asymptotic(x, sigma)
            with mpmath.workdps(30):
                e = 1 - 2 * mpmath.mpf(sigma)
                want = mpmath.log(x) + mpmath.euler if sigma == 0.5 else mpmath.mpf(x) ** e / e
                if sigma > 0 and sigma != 0.5:
                    want += mpmath.zeta(2 * mpmath.mpf(sigma))
            assert abs(got.value - float(want)) <= got.abs_error_bound, x
            assert got.abs_error_bound <= 1e-13 * abs(got.value), x

    @pytest.mark.parametrize("x", [1.0e5, 1.0e6, 2.0e6])
    def test_binary64_bound_covers_roundoff(self, x):
        # sigma = 1 stays on the binary64 branch up to 2e6 (headroom 6.6e12),
        # where roundoff moves the scaled residual by up to 1e-3 from its
        # Euler-Maclaurin value 1/2 - 1/(6x) + O(x^-3)
        chk = power_sum_check(x, 1.0)
        gap = abs(chk.inputs["residual"] * x * x - (0.5 - 1.0 / (6.0 * x)))
        assert gap <= chk.inputs["error_bound"] <= 0.1

    def test_extended_bound_covers_roundoff(self):
        # both extended branches: their bounds cover the distance to the
        # Euler-Maclaurin value (whose next term is below 1e-17 here)
        for x, sigma in ((1.0e4, 2.0), (1.0e5, 2.0), (6000.0, 1.75)):
            a = 2.0 * sigma
            want = 0.5 - a / (12.0 * x) + a * (a + 1.0) * (a + 2.0) / (720.0 * x**3)
            chk = power_sum_check(x, sigma)
            gap = abs(chk.inputs["residual"] * x**a - want)
            assert gap <= chk.inputs["error_bound"] <= 1e-11, (x, sigma)

    def test_extended_budget_fails_fast(self):
        t0 = time.perf_counter()
        with pytest.raises(BudgetExceededError):
            power_sum_check(2.5e7, 2.0)
        assert time.perf_counter() - t0 < 0.1


CRITERION_7_CASES = [(QUOTIENT_KIND, -1.0), (QUOTIENT_KIND, -2.0),
                     (PRODUCT_KIND, 0.5), (PRODUCT_KIND, 1.0), (PRODUCT_KIND, 2.0)]


@functools.lru_cache(maxsize=None)
def _mp_row_sums(kind, sigma, N):
    """a_n sum_{m<n} b_m / log(n/m) for n = 2..N at 30 digits."""
    with mpmath.workdps(30):
        logs = [mpmath.log(k) for k in range(1, N + 1)]
        b = [mpmath.power(k, -sigma) for k in range(1, N + 1)]
        a = [mpmath.power(k, sigma) for k in range(1, N + 1)] \
            if kind == QUOTIENT_KIND else b
        return [a[n] * mpmath.fsum(b[m] / (logs[n] - logs[m]) for m in range(n))
                for n in range(1, N)]


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

    @pytest.mark.parametrize("kind,sigma", CRITERION_7_CASES)
    def test_matches_mp_reference(self, kind, sigma):
        # the five criterion-7 cases against a 30-digit sum over all 19,900
        # pairs of N = 200; x = 200.5 floors to the same N
        with mpmath.workdps(30):
            want = mpmath.fsum(_mp_row_sums(kind, sigma, 200))
            for x in (200.0, 200.5):
                got = double_sum_growth(x, sigma, kind).lhs
                assert abs(got - want) <= 1e-15 * abs(want), (x, got, want)

    def test_table_matches_mp_reference(self):
        # one table for all five cases: x = 100 reads a prefix of the rows
        # that x = 200 sums
        table = double_sum_table([100.0, 200.0], CRITERION_7_CASES)
        for (kind, sigma), checks in zip(CRITERION_7_CASES, table):
            rows = _mp_row_sums(kind, sigma, 200)
            with mpmath.workdps(30):
                for chk, N in zip(checks, (100, 200)):
                    want = mpmath.fsum(rows[:N - 1])
                    assert abs(chk.lhs - want) <= 1e-15 * abs(want), (kind, sigma, N)
                    assert chk.inputs == {"x": float(N), "sigma": sigma, "kind": kind}
                    assert chk.ratio == chk.lhs / chk.rhs_bound

    @pytest.mark.parametrize("n_cases", [1, 5])
    def test_kernel_shared_by_cases(self, monkeypatch, n_cases):
        # one log1p a 32-row block, whatever the number of cases and of x
        calls = []
        log1p = np.log1p

        def counting(*args, **kwargs):
            calls.append(1)
            return log1p(*args, **kwargs)

        monkeypatch.setattr(bound_checks.np, "log1p", counting)
        N = 1000
        double_sum_table([250.0, 500.0, float(N)], CRITERION_7_CASES[:n_cases])
        assert len(calls) == -(-(N - 1) // 32)

    @pytest.mark.parametrize("xs, cases, error, match", [
        ([100.0], [(PRODUCT_KIND, 1.0), ("nonsense", 1.0)], ValueError, "unknown kind"),
        ([100.0], [(QUOTIENT_KIND, 0.5)], ValueError, "requires sigma < 0"),
        ([100.0, 1.5], [(PRODUCT_KIND, 1.0)], ValueError, "x >= 2"),
        ([100.0, 3001.0], [(PRODUCT_KIND, 1.0)], BudgetExceededError, "capped"),
        ([100.0, 3000.0], [(PRODUCT_KIND, 1.0), (QUOTIENT_KIND, -90.0)], ValueError,
         "leave binary64"),
    ])
    def test_table_refuses_before_any_block(self, monkeypatch, xs, cases, error, match):
        # the errors of double_sum_growth, raised before the first kernel
        def no_block(*args, **kwargs):
            raise AssertionError("a block was built")

        monkeypatch.setattr(bound_checks.np, "log1p", no_block)
        with pytest.raises(error, match=match):
            double_sum_table(xs, cases)

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
