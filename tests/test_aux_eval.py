"""Auxiliary-function evaluators: truncated sum, contour quadrature, dispatch."""

import cmath
import math

import mpmath
import numpy as np
import pytest

from auxzeta import aux_eval
from auxzeta.aux_eval import (DIRECT_CONTOUR_METHOD, MAIN_SUM_METHOD,
                              MAIN_SUM_ERROR_COEFF, T_SWITCH,
                              critical_line_decomposition, eval_aux,
                              eval_aux_direct, main_sum, main_sum_error_bound,
                              n_main_terms)
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
        # near 2 pi n^2 the float t/2pi sits within an ulp of n^2, where a
        # rounded square root can land on either side
        for n in (1, 2, 5, 31, 1000, 99_999, 10**6, 12_345_677, 3 * 10**7):
            t_edge = TWO_PI * n * n
            for t in (math.nextafter(t_edge, 0.0), t_edge, math.nextafter(t_edge, math.inf)):
                N = n_main_terms(t)
                assert N in (n - 1, n)
                assert N * N <= t / TWO_PI < (N + 1) ** 2, (n, t)

    def test_requires_positive_t(self):
        with pytest.raises(ValueError):
            main_sum(0.0, -3.0)

    @pytest.mark.parametrize("t", [500.0, 1.0e3, 1.0e4, 1.0e5])
    def test_matches_mp_sum(self, t):
        # the phases t log n are reduced modulo 2pi in extended precision; a
        # binary64 2pi, 2.45e-16 short, would cost 1.8e-12 here at t = 1e4
        with mpmath.workdps(30):
            s = mpmath.mpc(0.5, t)
            want = complex(mpmath.fsum(mpmath.power(n, -s)
                                       for n in range(1, n_main_terms(t) + 1)))
        assert abs(main_sum(0.5, t) - want) <= 1e-13


class TestCrossing:
    def test_default_is_valid(self):
        r = eval_aux_direct(complex(0.5, 20.0))
        assert r.method == DIRECT_CONTOUR_METHOD
        assert r.error_bound < 1e-12

    def test_bad_crossing(self, monkeypatch):
        def no_quadrature(*args):
            raise AssertionError("quadrature ran before the crossing was checked")
        monkeypatch.setattr(aux_eval, "_quad_float", no_quadrature)
        monkeypatch.setattr(aux_eval, "_quad_mp", no_quadrature)
        for crossing in (1.2, 0.99, 0.0, -1.5):  # near the pole at 1; not positive
            with pytest.raises(ContourError):
                eval_aux_direct(complex(0.5, 20.0), crossing)

    def test_shifted_is_valid(self):
        for t in (5.0, 40.0, 100.0, 500.0, 1000.0):
            r = eval_aux_direct(complex(0.5, t), n_main_terms(t) + 0.5)
            assert r.method == DIRECT_CONTOUR_METHOD

    def test_crossing_near_any_pole(self):
        # 0.15 along the axis is 0.106 from the pole across the line
        for n in (2, 3, 9):
            for crossing in (n - 0.15, n + 0.15):
                with pytest.raises(ContourError):
                    eval_aux_direct(complex(0.5, 20.0), crossing)
        # far above the saddle the line cancels 12 digits, but it reaches
        # past the region where the Gaussian factor grows, so the residues
        # and the line still add up to R
        far = eval_aux_direct(complex(0.5, 20.0), 5.5)
        near = eval_aux_direct(complex(0.5, 20.0))
        assert abs(far.value - near.value) <= far.error_bound + near.error_bound


class TestDirectContour:
    def test_refinement_contract(self):
        # the bound of each route covers its true error: the shifted and the
        # unshifted line, both in binary64 here, are independent evaluations
        # of R, so their gap is at most the sum of the bounds.  The
        # unshifted line cancels up to 5 digits, which the halving
        # difference alone does not show.
        for sigma in (0.0, 0.5, 1.0):
            for t in np.linspace(10.0, 35.0, 51).tolist():
                s = complex(sigma, t)
                shifted, oracle = eval_aux(s), eval_aux_direct(s)
                gap = abs(shifted.value - oracle.value)
                assert gap <= shifted.error_bound + oracle.error_bound, (sigma, t)

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

    @pytest.mark.parametrize("sigma,t,crossing", [(0.5, 20.0, 0.5), (0.0, 60.0, 3.5)])
    def test_levels_are_nested(self, monkeypatch, sigma, t, crossing):
        # the first level spans the path; each halving evaluates only its
        # new nodes inside the window the first level found, so no node is
        # computed twice and the finest level is full inside the window
        seen, windows = [], []
        quad = aux_eval._quad_float

        def recording(s, c, u, measure=False):
            seen.append(u)
            result = quad(s, c, u, measure)
            if measure:
                windows.append(result[3])
            return result
        monkeypatch.setattr(aux_eval, "_quad_float", recording)
        r = eval_aux_direct(complex(sigma, t), crossing)
        nodes = np.concatenate(seen)
        assert np.unique(nodes).size == nodes.size == r.n_evals
        U = aux_eval._path_extent(t, crossing)
        (lo, hi), = windows
        lo, hi = max(lo, -U), min(hi, U)
        h = aux_eval._FIRST_STEP * 0.5 ** (len(seen) - 1)
        inside = np.sort(nodes[(nodes >= lo) & (nodes <= hi)])
        assert np.array_equal(inside, np.arange(math.ceil(lo / h), math.floor(hi / h) + 1) * h)
        later = np.concatenate(seen[1:])
        assert lo <= later.min() and later.max() <= hi
        assert np.abs(nodes).max() <= U

    def test_unmeasured_pass_is_value_and_count(self):
        # the halvings' pass forms no magnitudes: it returns the same sum as
        # the measured pass, bit for bit, and the node count, nothing more
        s, u = complex(0.5, 20.0), np.arange(-13, 14) * 0.5
        measured = aux_eval._quad_float(s, 0.5, u, measure=True)
        assert aux_eval._quad_float(s, 0.5, u) == measured[:2] == (measured[0], u.size)

    @pytest.mark.parametrize("side", [1.0, -1.0])
    def test_window_of_a_dead_level_is_its_peak_node(self, side):
        # nodes far out on either end are all below 10^_CUT: the window is
        # the node nearest the peak of the integrand, 1 to either side
        u = side * np.arange(16, 30) * 0.5
        _, n, peak, window = aux_eval._quad_float(complex(0.5, 20.0), 0.5, u, measure=True)
        assert n == u.size and peak < aux_eval._CUT
        assert window == (side * 8.0 - 1.0, side * 8.0 + 1.0)

    def test_both_arithmetics_agree(self, monkeypatch):
        # binary64 suffices at (1/2, 30); the mp pass, forced there, must
        # give the same value within the binary64 bound
        s = complex(0.5, 30.0)
        f64 = eval_aux_direct(s)
        calls = []
        quad_mp = aux_eval._quad_mp

        def counting(*args):
            calls.append(args[2].size)
            return quad_mp(*args)
        monkeypatch.setattr(aux_eval, "_quad_mp", counting)
        monkeypatch.setattr(aux_eval, "_FLOAT64_DIGIT_LIMIT", -1.0)
        mp = eval_aux_direct(s)
        assert calls and sum(calls) == mp.n_evals
        assert abs(mp.value - f64.value) <= f64.error_bound
        assert mp.error_bound <= f64.error_bound


class TestShiftedRoute:
    @pytest.mark.parametrize("sigma,t", [(sigma, t) for sigma in (0.0, 0.5, 1.0)
                                         for t in (40.0, 60.0, 100.0)]
                             + [(0.5, 500.0)])
    def test_matches_unshifted_oracle(self, sigma, t):
        s = complex(sigma, t)
        shifted = eval_aux(s)
        oracle = eval_aux_direct(s)
        assert abs(shifted.value - oracle.value) <= 1e-9 * (1.0 + abs(oracle.value))

    def test_binary64_suffices(self, monkeypatch):
        # the shifted line loses under a digit to cancellation, so the
        # first level keeps it in binary64 and the mp pass never runs
        def no_mp(*args):
            raise AssertionError("the shifted line ran in mp")
        monkeypatch.setattr(aux_eval, "_quad_mp", no_mp)
        for t in np.linspace(10.0, 500.0, 50).tolist():
            for sigma in (0.0, 0.5, 1.0):
                assert eval_aux(complex(sigma, t)).method == DIRECT_CONTOUR_METHOD

    def test_first_level_measures_cancellation(self):
        # the peak log10|integrand| over the first level's nodes, which
        # picks the arithmetic, is within half a digit of the peak over
        # 8,001 points of the path, on the oracle and the shifted line; and
        # outside the window the first level finds, where no later level
        # sums, those points stay below 10^_CUT
        def fine_scan(s, crossing):
            U = aux_eval._path_extent(s.imag, crossing)
            v = np.linspace(-U, U, 8001)
            x = crossing + v * aux_eval._DIRECTION
            w = np.exp(1j * math.pi * x)
            log_f = (-s * np.log(x) + 1j * math.pi * x * x).real - np.log(np.abs(w - 1 / w))
            return v, log_f / math.log(10.0)

        h = aux_eval._FIRST_STEP
        for sigma in (-1.0, 0.0, 0.5, 1.0, 2.0):
            for t in np.geomspace(1.0, 1000.0, 300).tolist():
                s = complex(sigma, t)
                for crossing in (0.5, n_main_terms(t) + 0.5):
                    U = aux_eval._path_extent(t, crossing)
                    u = np.arange(-math.floor(U / h), math.floor(U / h) + 1) * h
                    _, _, peak, (lo, hi) = aux_eval._quad_float(s, crossing, u, measure=True)
                    v, digits = fine_scan(s, crossing)
                    assert abs(peak - digits.max()) <= 0.5, (sigma, t, crossing)
                    outside = digits[(v < lo) | (v > hi)]
                    assert outside.size == 0 or outside.max() < aux_eval._CUT, (sigma, t, crossing)


class TestDispatch:
    def test_method_tags(self):
        assert eval_aux(complex(0.0, 100.0)).method == DIRECT_CONTOUR_METHOD
        r = eval_aux(complex(0.0, 1.0e4))
        assert r.method == MAIN_SUM_METHOD
        assert r.error_bound == main_sum_error_bound(0.0, 1.0e4)

    def test_continuity_at_switch(self):
        below = eval_aux(complex(0.0, T_SWITCH))
        above = eval_aux(complex(0.0, math.nextafter(T_SWITCH, math.inf)))
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

    def test_hardy_function_identity(self):
        # Siegel's functional equation on the critical line:
        # Re(2 e^{i theta} R(1/2+it)) = Z(t) = e^{i theta} zeta(1/2+it), with
        # zeta and theta from special_functions, which share no code with R;
        # criterion 8's grid, then log-spaced t up to the contour's T_SWITCH
        ts = np.concatenate([np.linspace(10.0, 200.0, 200), np.geomspace(200.0, 500.0, 40)])
        for t in ts.tolist():
            r = eval_aux(complex(0.5, t))
            zeta = complex_zeta(complex(0.5, t))
            theta = riemann_siegel_theta(t)
            phase = cmath.exp(1j * theta.value)
            gap = abs((2.0 * phase * r.value).real - (phase * zeta.value).real)
            bound = (2.0 * r.error_bound + zeta.abs_error_bound
                     + (abs(zeta.value) + 2.0 * abs(r.value)) * theta.abs_error_bound)
            assert gap <= bound, (t, gap, bound)

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
