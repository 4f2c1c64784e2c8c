"""Special-function layer: closed forms, independent oracles, contracts."""

import cmath
import math

import mpmath
import numpy as np
import pytest

from auxzeta import special_functions
from auxzeta.errors import (PoleProximityError, QuadratureConvergenceError,
                            RangeExceededError)
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
        # real_zeta is complex_zeta's real part, so it is checked against
        # 30-digit mpmath within its own bound; the imaginary part vanishes
        for sigma in np.linspace(-0.25, 5.0, 22):
            s = 2.0 * float(sigma)
            if abs(s - 1.0) < 1e-3:
                continue
            rv = real_zeta(s)
            with mpmath.workdps(30):
                err = abs(mpmath.mpf(rv.value) - mpmath.zeta(mpmath.mpf(s)))
            assert err <= rv.abs_error_bound, f"mismatch at s={s}"
            assert abs(complex_zeta(complex(s, 0.0)).value.imag) < 1e-10

    def test_error_bound_contract(self):
        # the reported bound covers the error against 30-digit mpmath; at
        # large t that needs the phases t log n reduced modulo an
        # extended-precision 2pi (the binary64 one is 2.45e-16 short a turn),
        # and a doubling of the terms is accepted when it moves the value by
        # no more than the two bounds together: a test against the coarser
        # bound alone kept doubling at -0.4 + 200i until roundoff broke it
        with mpmath.workdps(30):
            for sigma in (-0.45, -0.4, -0.2, 0.0, 0.5, 2.0):
                for t in (13.0, 50.0, 200.0, 300.0, 1.0e3, 1.0e4, 1.0e5):
                    r = complex_zeta(complex(sigma, t))
                    want = mpmath.zeta(mpmath.mpc(sigma, t))
                    assert abs(mpmath.mpc(r.value) - want) <= r.abs_error_bound, (sigma, t)
        assert complex_zeta(complex(0.5, 150.0)).abs_error_bound <= 1e-10

    def test_refinement_that_never_settles_raises(self, monkeypatch):
        def moving(s, N):
            return complex(N, 0.0), 1e-15, N
        monkeypatch.setattr(special_functions, "_euler_maclaurin_zeta", moving)
        with pytest.raises(QuadratureConvergenceError):
            complex_zeta(complex(0.5, 30.0))

    def test_range_guard(self):
        # no evaluator reflects: left of Re s = -1/2 zeta is out of range,
        # and so is Gamma at a negative non-integer
        for call in (lambda: complex_zeta(complex(0.5, 2.0e5)),
                     lambda: complex_zeta(complex(-1.0, 13.0)),
                     lambda: complex_zeta(complex(-2.5, -300.0)),
                     lambda: real_zeta(-1.0),
                     lambda: gamma_real(-0.5)):
            with pytest.raises(RangeExceededError):
                call()


class TestGamma:
    def test_log_gamma_at_one(self):
        assert abs(log_gamma(1.0).value) < 1e-13

    def test_half_integer_and_factorial(self):
        assert gamma_real(0.5).value == pytest.approx(math.sqrt(math.pi), rel=1e-12)
        assert gamma_real(5.0).value == pytest.approx(24.0, rel=1e-12)

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
        # theta's bound plus the oracle's own roundoff, 4u t log t: the one
        # check of theta that shares no code with mpmath
        for t in (5.0, 37.5, 100.0, 5000.0):
            got = riemann_siegel_theta(t)
            want = _stirling_theta_oracle(t)
            tol = got.abs_error_bound + 4.0 * 2.0**-53 * t * math.log(t)
            assert abs(got.value - want) <= tol, f"theta mismatch at t={t}"

    def test_monotone_beyond_ten(self):
        grid = np.linspace(10.0, 500.0, 200)
        vals = [riemann_siegel_theta(float(t)).value for t in grid]
        assert all(b > a for a, b in zip(vals, vals[1:]))


def _contract_cases():
    # theta, then log_gamma on test_recurrence_grid's z and Im z = +-5e4,
    # then gamma_real: each with its 50-digit mpmath reference
    for t in (0.5, -0.5, 5.0, 37.5, 500.0, 1.0e4, 1.0e5):
        yield pytest.param(lambda t=t: riemann_siegel_theta(t),
                           lambda t=t: mpmath.siegeltheta(t), id=f"theta({t})")
    for re in (0.1, 0.7, 2.3, 10.0):
        for im in (-5.0e4, -50.0, -3.0, 0.0, 1.5, 50.0, 5.0e4):
            z = complex(re, im)
            yield pytest.param(lambda z=z: log_gamma(z),
                               lambda z=z: mpmath.loggamma(mpmath.mpc(z)), id=f"log_gamma({z})")
    for x in (0.3, 0.5, 5.0, 7.7, 20.0):
        yield pytest.param(lambda x=x: gamma_real(x), lambda x=x: mpmath.gamma(x),
                           id=f"gamma_real({x})")


class TestBoundContract:
    @pytest.mark.parametrize("call,reference", _contract_cases())
    def test_error_within_bound_within_two_ulps(self, call, reference):
        # the value is a 30-digit one rounded once, so its bound is honest
        # and no wider than two ulps plus the 30-digit margin
        got = call()
        with mpmath.workdps(50):
            err = float(abs(mpmath.mpmathify(got.value) - reference()))
        size = abs(got.value)
        assert err <= got.abs_error_bound, (err, got.abs_error_bound)
        assert got.abs_error_bound <= 2.0 * math.ulp(size) + 1e-25 * (1.0 + size)


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
