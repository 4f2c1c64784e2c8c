"""Laplace transforms of moment streams: calibration, coverage, scans."""

import math

import mpmath
import numpy as np
import pytest

from auxzeta.aux_eval import n_main_terms
from auxzeta.bound_checks import _GLX8
from auxzeta.errors import CoverageError
from auxzeta.laplace import (DEFAULT_EPS_TMAX, LaplaceScanRow, MomentStream,
                             laplace_numeric, laplace_ratio_scan,
                             laplace_tail_bound, power_law_stream)
from auxzeta.mean_value import moment_stream
from auxzeta.predictors import exp_poly_integral


def _split_transform(sigma, weighted, eps, T):
    """int_1^T e^{-eps t} dF from the exact diagonal + cross split at 30
    digits: w = 1 in closed form, w = 2pi/t (weighted sigma = -1) by E1."""
    with mpmath.workdps(30):
        two_pi, T = 2 * mpmath.pi, mpmath.mpf(T)

        def window(z, a):  # int_a^T w e^{-z t} dt
            if weighted and sigma == -1.0:
                return two_pi * (mpmath.e1(z * a) - mpmath.e1(z * T))
            return (mpmath.exp(-z * a) - mpmath.exp(-z * T)) / z

        total = mpmath.mpf(0)
        for n in range(1, n_main_terms(float(T)) + 1):
            a = two_pi * n * n
            total += mpmath.mpf(n) ** (-2 * sigma) * window(mpmath.mpf(eps), a)
            for m in range(1, n):
                z = eps - 1j * mpmath.log(mpmath.mpf(n) / m)
                total += 2 * (mpmath.mpf(n * m)) ** -sigma * mpmath.re(window(z, a))
        return float(total)


class TestLaplaceNumeric:
    def test_zero_stream(self):
        stream = MomentStream(900.0, [(1.0, 0.5, np.zeros((1798, 8)))])
        assert laplace_numeric(0.05, stream) == 0.0

    @pytest.mark.parametrize("power", [1.0, 1.5, 2.0])
    def test_power_law_calibration(self, power):
        # int_1^inf e^{-eps t} d(t^a) = eps int_1^inf t^a e^{-eps t} dt - e^{-eps}
        eps = 0.05
        stream = power_law_stream(power, DEFAULT_EPS_TMAX / eps)
        got = laplace_numeric(eps, stream)
        want = eps * exp_poly_integral(power, eps) - math.exp(-eps)
        assert abs(got - want) / want <= 1e-13

    def test_calibration_second_epsilon(self):
        eps = 0.02
        stream = power_law_stream(1.5, DEFAULT_EPS_TMAX / eps)
        got = laplace_numeric(eps, stream)
        want = eps * exp_poly_integral(1.5, eps) - math.exp(-eps)
        assert abs(got - want) / want <= 1e-13

    def test_coverage_guard(self):
        stream = power_law_stream(1.5, 100.0)
        with pytest.raises(CoverageError):
            laplace_numeric(0.05, stream)  # eps * T_max = 5 < 40

    @pytest.mark.parametrize("sigma,weighted", [(0.0, False), (0.5, False), (-1.0, True)])
    def test_matches_exact_split(self, sigma, weighted):
        # the moments benchmark's stream reach, T = 42 / 0.01; summing the
        # stream's own nodes leaves only roundoff against the split
        stream = moment_stream(sigma, 4200.0, weighted)
        for eps in (0.05, 0.02, 0.01):
            want = _split_transform(sigma, weighted, eps, 4200.0)
            got = laplace_numeric(eps, stream)
            assert abs(got - want) <= 1e-12 * want, (eps, got, want)


def _node_transform(eps, stream):
    """sum of e^{-eps t} dF over the stream's nodes, with no coverage guard"""
    return math.fsum(
        float(np.sum(np.exp(-eps * (lo + h * (np.arange(len(dF))[:, None] + 0.5)
                                    + 0.5 * h * _GLX8)) * dF))
        for lo, h, dF in stream.runs)


class TestTailBound:
    def test_decreases_with_coverage(self):
        b1 = laplace_tail_bound(0.0, True, 0.05, 40.0 / 0.05)
        b2 = laplace_tail_bound(0.0, True, 0.05, 42.0 / 0.05)
        assert b2 < b1

    def test_envelope_larger_than_true_tail(self):
        # weighted sigma = 0: |S|^2 <= t/2pi, whose tail from A is exactly
        # e^{-eps A} (A/eps + 1/eps^2)/2pi; the bound is within 1/(1 - 1/(eps A)^2)
        eps, t_max = 0.05, 42.0 / 0.05
        exact = math.exp(-eps * t_max) * (t_max / eps + eps ** -2) / (2.0 * math.pi)
        bound = laplace_tail_bound(0.0, True, eps, t_max)
        assert exact <= bound <= 1.001 * exact

    @pytest.mark.parametrize("weighted", [True, False])
    @pytest.mark.parametrize("sigma", [-1.0, 0.0, 0.5, 2.0])
    def test_bound_holds_on_measured_tail(self, sigma, weighted):
        # the omitted mass past A, where it is far above roundoff, as the
        # difference of a stream to A and one to 50/eps
        eps = 0.05
        full = _node_transform(eps, moment_stream(sigma, 50.0 / eps, weighted))
        for y in (3.0, 6.0):
            A = y / eps
            omitted = full - _node_transform(eps, moment_stream(sigma, A, weighted))
            assert 1e-6 * full < omitted <= laplace_tail_bound(sigma, weighted, eps, A)


class TestRatioScan:
    def test_rows_and_tail_contract(self):
        rows = laplace_ratio_scan(-1.0, [0.05], True)
        assert len(rows) == 1
        row = rows[0]
        assert isinstance(row, LaplaceScanRow)
        assert row.predicted == pytest.approx(
            (2.0 * 0.05) ** -1.5 / 3.0, rel=1e-14)
        assert row.tail_bound <= 1e-15 * row.numeric
        assert 0.5 < row.ratio < 2.0

    def test_trivial_predicted_value(self):
        rows = laplace_ratio_scan(-1.0, [0.5], True)
        assert rows[0].predicted == pytest.approx(1.0 / 3.0, rel=1e-14)

    def test_grid_must_descend(self):
        with pytest.raises(ValueError):
            laplace_ratio_scan(0.0, [0.01, 0.05], True)

    def test_sigma_half_runs(self):
        # the log terms' table and the proven tail: no sigma < 1/2 rule
        rows = laplace_ratio_scan(0.5, [0.05], True)
        assert rows[0].tail_bound <= 1e-15 * rows[0].numeric
        assert 0.5 < rows[0].ratio < 2.0
