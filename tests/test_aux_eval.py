"""Auxiliary-function evaluators: truncated sum, contour quadrature, dispatch."""

import cmath
import math

import numpy as np
import pytest

from auxzeta.aux_eval import (DIRECT_CONTOUR_METHOD, MAIN_SUM_METHOD,
                              MAIN_SUM_ERROR_COEFF, ContourSpec,
                              critical_line_decomposition, default_contour,
                              eval_aux, eval_aux_direct, main_sum,
                              main_sum_error_bound, n_main_terms)
from auxzeta.errors import ContourError
from auxzeta.special_functions import complex_zeta, riemann_siegel_theta

TWO_PI = 2.0 * math.pi


class TestMainSum:
    def test_empty_sum(self):
        assert main_sum(3.7, math.pi) == 0.0

    def test_single_term(self):
        assert main_sum(1.0, 3.0 * TWO_PI) == pytest.approx(1.0 + 0.0j, abs=1e-14)

    def test_two_terms_scalar_oracle(self):
        # sigma=0, t=8pi: 1 + exp(-8 pi i ln 2), boundary n=2 included
        t = 8.0 * math.pi
        want = 1.0 + cmath.exp(-1j * t * math.log(2.0))
        assert main_sum(0.0, t) == pytest.approx(want, abs=1e-12)

    def test_term_count_piecewise_constant(self):
        for n in (1, 2, 5, 31):
            t_edge = TWO_PI * n * n
            assert n_main_terms(t_edge) == n          # boundary inclusive
            assert n_main_terms(t_edge - 1e-6) == n - 1
            assert n_main_terms(t_edge + 1e-6) == n

    def test_requires_positive_t(self):
        with pytest.raises(ValueError):
            main_sum(0.0, -3.0)


class TestContourSpec:
    def test_default_is_valid(self):
        default_contour(100.0).validate()

    def test_bad_crossing(self):
        with pytest.raises(ContourError):
            ContourSpec(crossing=1.2).validate()
        with pytest.raises(ContourError):
            ContourSpec(crossing=0.99).validate()  # within 0.2 of the pole at 1

    def test_bad_direction(self):
        with pytest.raises(ContourError):
            ContourSpec(direction_angle=-math.pi / 4.0).validate()
        with pytest.raises(ContourError):
            ContourSpec(direction_angle=0.5).validate()

    def test_opposite_diagonal_allowed(self):
        ContourSpec(direction_angle=math.pi / 4.0 + math.pi).validate()


class TestDirectContour:
    def test_refinement_contract(self):
        s = complex(0.0, 30.0)
        base = eval_aux_direct(s, default_contour(30.0, nodes_per_unit=32))
        fine = eval_aux_direct(s, default_contour(30.0, nodes_per_unit=64))
        assert abs(base.value - fine.value) < base.error_bound + 1e-13

    def test_matches_main_sum_small_t(self):
        # orientation pinning: the value tracks the sum, not a conjugate
        # or negation of it
        for sigma in (0.0, 0.5, 1.0):
            s = complex(sigma, 50.0)
            direct = eval_aux_direct(s).value
            ms = main_sum(sigma, 50.0)
            resid = abs(direct - ms)
            assert resid * 50.0 ** (sigma / 2.0) < MAIN_SUM_ERROR_COEFF * TWO_PI ** (sigma / 2.0)
            assert resid < abs(direct + ms)
            assert resid < abs(direct - ms.conjugate())

    def test_hardy_zero_at_first_zeta_zero(self):
        # at the first critical-line zero of zeta the Hardy function
        # vanishes, so the contour value satisfies |Re(2 e^{i theta} R)| ~ 0
        t = 14.1347251417
        r = eval_aux_direct(complex(0.5, t))
        theta = riemann_siegel_theta(t).value
        z = (2.0 * cmath.exp(1j * theta) * r.value).real
        assert abs(z) < 1e-3

    def test_mp_path_self_consistent(self):
        # t = 60 needs extended precision; halving agreement is the bound
        s = complex(0.5, 60.0)
        r = eval_aux_direct(s)
        assert r.method == DIRECT_CONTOUR_METHOD
        assert r.error_bound < 1e-8
        resid = abs(r.value - main_sum(0.5, 60.0)) * 60.0**0.25
        assert resid < MAIN_SUM_ERROR_COEFF * TWO_PI**0.25

    def test_requires_upper_half_plane(self):
        with pytest.raises(ValueError):
            eval_aux_direct(complex(0.0, -5.0))


class TestDispatch:
    def test_method_tags(self):
        assert eval_aux(complex(0.0, 100.0)).method == DIRECT_CONTOUR_METHOD
        r = eval_aux(complex(0.0, 1.0e4))
        assert r.method == MAIN_SUM_METHOD
        assert r.error_bound == main_sum_error_bound(0.0, 1.0e4)

    def test_continuity_at_switch(self):
        below = eval_aux(complex(0.0, 50.0), t_switch=50.0)
        above = eval_aux(complex(0.0, 50.0 + 1e-9), t_switch=50.0)
        assert below.method == DIRECT_CONTOUR_METHOD
        assert above.method == MAIN_SUM_METHOD
        gap = abs(below.value - above.value)
        assert gap <= below.error_bound + above.error_bound

    def test_main_sum_error_model_recorded(self):
        # the recorded coefficient covers the measured sweep at t=50
        for sigma in (0.0, 0.5, 1.0):
            direct = eval_aux_direct(complex(sigma, 50.0)).value
            resid = abs(direct - main_sum(sigma, 50.0))
            assert resid <= main_sum_error_bound(sigma, 50.0)


class TestCriticalLine:
    def test_real_part_is_hardy_function(self):
        # z component vs e^{i theta} zeta(1/2+it) through the independent
        # Euler-Maclaurin oracle
        t = 30.0
        z, _ = critical_line_decomposition(t)
        zeta = complex_zeta(complex(0.5, t))
        theta = riemann_siegel_theta(t)
        hardy = (cmath.exp(1j * theta.value) * zeta.value).real
        combined = zeta.abs_error_bound + theta.abs_error_bound + 1e-8
        assert abs(z - hardy) <= combined

    def test_modulus_dominates_zeta_small_grid(self):
        for t in np.linspace(10.0, 40.0, 20):
            z, y = critical_line_decomposition(float(t))
            lhs = math.hypot(z, y)
            rhs = abs(complex_zeta(complex(0.5, float(t))).value)
            assert lhs >= rhs - 1e-8

    def test_equality_where_y_vanishes(self):
        # bracket a zero of the y component on [12, 18], then check
        # 2|R| = |zeta| there
        lo, hi = 12.0, 18.0
        _, y_lo = critical_line_decomposition(lo)
        _, y_hi = critical_line_decomposition(hi)
        if y_lo * y_hi > 0:  # walk until a sign change is bracketed
            for step in np.arange(12.5, 25.0, 0.5):
                _, y_step = critical_line_decomposition(float(step))
                if y_lo * y_step < 0:
                    hi, y_hi = float(step), y_step
                    break
                lo, y_lo = float(step), y_step
        assert y_lo * y_hi < 0, "no sign change of the y component found"
        for _ in range(40):
            mid = 0.5 * (lo + hi)
            _, y_mid = critical_line_decomposition(mid)
            if y_lo * y_mid <= 0:
                hi, y_hi = mid, y_mid
            else:
                lo, y_lo = mid, y_mid
        t_star = 0.5 * (lo + hi)
        z, y = critical_line_decomposition(t_star)
        assert abs(y) < 1e-6
        assert math.hypot(z, y) == pytest.approx(
            abs(complex_zeta(complex(0.5, t_star)).value), abs=1e-6)
