"""Laplace transforms of moment streams: calibration, coverage, scans."""

import math

import numpy as np
import pytest

from auxzeta.errors import CoverageError
from auxzeta.laplace import (DEFAULT_EPS_TMAX, LaplaceScanRow, MomentStream,
                             laplace_numeric, laplace_ratio_scan,
                             laplace_tail_bound, power_law_stream)
from auxzeta.predictors import exp_poly_integral


class TestLaplaceNumeric:
    def test_zero_stream(self):
        t = np.linspace(1.0, 900.0, 5000)
        stream = MomentStream(t, np.zeros_like(t))
        assert laplace_numeric(0.05, stream) == 0.0

    @pytest.mark.parametrize("power", [1.0, 1.5, 2.0])
    def test_power_law_calibration(self, power):
        eps = 0.05
        stream = power_law_stream(power, DEFAULT_EPS_TMAX / eps)
        got = laplace_numeric(eps, stream)
        want = eps * exp_poly_integral(power, eps)
        assert abs(got - want) / want <= 1e-6

    def test_calibration_second_epsilon(self):
        eps = 0.02
        stream = power_law_stream(1.5, DEFAULT_EPS_TMAX / eps)
        got = laplace_numeric(eps, stream)
        want = eps * exp_poly_integral(1.5, eps)
        assert abs(got - want) / want <= 1e-6

    def test_coverage_guard(self):
        t = np.linspace(1.0, 100.0, 500)
        stream = MomentStream(t, t**1.5)
        with pytest.raises(CoverageError):
            laplace_numeric(0.05, stream)  # eps * T_max = 5 < 40


class TestTailBound:
    def test_decreases_with_coverage(self):
        b1 = laplace_tail_bound(0.0, 0.05, 40.0 / 0.05)
        b2 = laplace_tail_bound(0.0, 0.05, 42.0 / 0.05)
        assert b2 < b1

    def test_envelope_larger_than_true_tail(self):
        # against the exact transform of the envelope's own power law
        eps, t_max = 0.05, 42.0 / 0.05
        coef = 2.0 * 2.0 / (3.0 * math.sqrt(2.0 * math.pi))
        grid = np.linspace(t_max, t_max + 4000.0, 2000001)
        true_tail = eps * coef / 2.0 * float(
            np.trapezoid(grid**1.5 * np.exp(-eps * grid), grid))
        assert laplace_tail_bound(0.0, eps, t_max) >= true_tail


class TestRatioScan:
    def test_rows_and_tail_contract(self):
        rows = laplace_ratio_scan(-1.0, [0.05])
        assert len(rows) == 1
        row = rows[0]
        assert isinstance(row, LaplaceScanRow)
        assert row.predicted == pytest.approx(
            (2.0 * 0.05) ** -1.5 / 3.0, rel=1e-14)
        assert row.tail_bound <= 1e-15 * row.numeric
        assert 0.5 < row.ratio < 2.0

    def test_trivial_predicted_value(self):
        rows = laplace_ratio_scan(-1.0, [0.5])
        assert rows[0].predicted == pytest.approx(1.0 / 3.0, rel=1e-14)

    def test_grid_must_descend(self):
        with pytest.raises(ValueError):
            laplace_ratio_scan(0.0, [0.01, 0.05])

    def test_sigma_domain(self):
        with pytest.raises(ValueError):
            laplace_ratio_scan(0.5, [0.05])
