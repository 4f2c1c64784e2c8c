"""Special-function layer: closed forms, independent oracles, contracts."""

import cmath
import math

import numpy as np
import pytest

from auxzeta.errors import PoleProximityError, RangeExceededError
from auxzeta.special_functions import (EULER_GAMMA, EvalResult,
                                       _euler_maclaurin_zeta, complex_zeta,
                                       gamma_real, log_gamma, real_zeta,
                                       riemann_siegel_theta)

# first zero ordinate of zeta on the critical line (classical constant)
FIRST_ZERO_T = 14.134725141734694


class TestRealZeta:
    def test_closed_forms(self):
        assert real_zeta(2.0).value == pytest.approx(math.pi**2 / 6.0, abs=1e-12)
        assert real_zeta(4.0).value == pytest.approx(math.pi**4 / 90.0, abs=1e-12)
        assert real_zeta(-1.0).value == pytest.approx(-1.0 / 12.0, abs=1e-12)

    def test_zeta3_two_truncation_orders(self):
        # independent confirmation: two explicit truncation levels agree
        v1, _, _ = _euler_maclaurin_zeta(complex(3.0, 0.0), 30)
        v2, _, _ = _euler_maclaurin_zeta(complex(3.0, 0.0), 60)
        assert abs(v1 - v2) < 1e-12
        assert real_zeta(3.0).value == pytest.approx(v2.real, abs=1e-12)
        assert real_zeta(3.0).value == pytest.approx(1.2020569032, abs=1e-9)

    def test_pole_guard(self):
        with pytest.raises(PoleProximityError):
            real_zeta(1.0 + 1e-8)

    def test_near_pole_euler_constant(self):
        # zeta(s) - 1/(s-1) -> gamma; use the representable gap, not the
        # nominal 1e-6, since 1/(s-1) magnifies the representation error
        s = 1.0 + 1e-6
        d = s - 1.0
        assert real_zeta(s).value - 1.0 / d == pytest.approx(
            EULER_GAMMA, abs=1e-5)


class TestComplexZeta:
    def test_known_values(self):
        assert complex_zeta(0j).value == pytest.approx(-0.5, abs=1e-12)
        assert complex_zeta(2.0 + 0j).value.real == pytest.approx(
            math.pi**2 / 6.0, abs=1e-12)

    def test_first_critical_zero(self):
        assert abs(complex_zeta(complex(0.5, FIRST_ZERO_T)).value) < 1e-6

    def test_agrees_with_real_zeta_on_real_axis(self):
        for sigma in np.linspace(-5.0, 5.0, 41):
            s = 2.0 * float(sigma)
            if abs(s - 1.0) < 1e-3:
                continue
            rv = real_zeta(s).value
            cv = complex_zeta(complex(s, 0.0)).value
            assert abs(rv - cv.real) < 1e-10, f"mismatch at s={s}"
            assert abs(cv.imag) < 1e-10

    def test_error_bound_contract(self):
        # recompute at stricter tolerance: stays within the prior bound
        s = complex(0.5, 150.0)
        loose = complex_zeta(s, tol=1e-8)
        tight = complex_zeta(s, tol=1e-14)
        assert abs(loose.value - tight.value) <= max(loose.abs_error_bound, 1e-13)
        assert loose.abs_error_bound >= 0.0 and math.isfinite(loose.abs_error_bound)
        assert complex_zeta(s).abs_error_bound <= 1e-10  # documented range

    def test_range_guard(self):
        with pytest.raises(RangeExceededError):
            complex_zeta(complex(0.5, 2.0e5))


class TestGamma:
    def test_log_gamma_at_one(self):
        assert abs(log_gamma(1.0).value) < 1e-13

    def test_half_integer_and_factorial(self):
        assert gamma_real(0.5).value == pytest.approx(math.sqrt(math.pi), rel=1e-12)
        assert gamma_real(5.0).value == pytest.approx(24.0, rel=1e-12)

    def test_reflection_negative_half(self):
        assert gamma_real(-0.5).value == pytest.approx(
            -2.0 * math.sqrt(math.pi), rel=1e-12)

    def test_pole_rejection(self):
        for x in (0.0, -1.0, -7.0):
            with pytest.raises(PoleProximityError):
                gamma_real(x)

    def test_recurrence_grid(self):
        # Gamma(z+1) = z Gamma(z) on Re z in [0.1, 10], |Im z| <= 50
        for re in (0.1, 0.7, 2.3, 10.0):
            for im in (-50.0, -3.0, 0.0, 1.5, 50.0):
                z = complex(re, im)
                lhs = cmath.exp(log_gamma(z + 1.0).value)
                rhs = z * cmath.exp(log_gamma(z).value)
                assert abs(lhs - rhs) <= 1e-10 * abs(rhs), f"recurrence fails at {z}"


def _stirling_theta_oracle(t: float) -> float:
    """Independent high-order asymptotic for theta(t): shift the argument
    far out (|z| >= 40) before applying an eight-term Stirling tail."""
    z = complex(0.25, 0.5 * t)
    shift = 0
    while abs(z) < 40.0:
        z += 1.0
        shift += 1
    coeffs = (1 / 12, -1 / 360, 1 / 1260, -1 / 1680, 1 / 1188,
              -691 / 360360, 1 / 156, -3617 / 122400)
    out = (z - 0.5) * cmath.log(z) - z + 0.5 * math.log(2.0 * math.pi)
    zk = 1.0 / z
    for c in coeffs:
        out += c * zk
        zk /= z * z
    base = complex(0.25, 0.5 * t)
    for k in range(shift):
        out -= cmath.log(base + k)
    return out.imag - 0.5 * t * math.log(math.pi)


class TestTheta:
    def test_at_zero(self):
        assert riemann_siegel_theta(0.0).value == 0.0

    def test_odd(self):
        assert riemann_siegel_theta(37.5).value == pytest.approx(
            -riemann_siegel_theta(-37.5).value, abs=1e-12)

    def test_against_independent_stirling(self):
        for t in (5.0, 37.5, 100.0, 5000.0):
            got = riemann_siegel_theta(t).value
            want = _stirling_theta_oracle(t)
            assert got == pytest.approx(want, abs=1e-9), f"theta mismatch at t={t}"

    def test_monotone_beyond_ten(self):
        grid = np.linspace(10.0, 500.0, 200)
        vals = [riemann_siegel_theta(float(t)).value for t in grid]
        assert all(b > a for a, b in zip(vals, vals[1:]))


class TestEulerGamma:
    def test_stored_constant(self):
        assert EULER_GAMMA == 0.5772156649015329

    def test_harmonic_sum_limit(self):
        from auxzeta.bound_checks import power_sum_partial

        h = power_sum_partial(1.0e6, 0.5)  # harmonic number H_1e6
        assert h - math.log(1.0e6) == pytest.approx(EULER_GAMMA, abs=1e-6)


class TestEvalResult:
    def test_rejects_bad_bound(self):
        with pytest.raises(ValueError):
            EvalResult(1.0, -1.0, 3)
        with pytest.raises(ValueError):
            EvalResult(1.0, math.inf, 3)
