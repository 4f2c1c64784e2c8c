"""Moment engine: closed forms, decomposition exactness, stream contracts."""

import math

import numpy as np
import pytest

from auxzeta.bound_checks import osc_integral
from auxzeta.errors import BudgetExceededError
from auxzeta.mean_value import (cross_term_value, decomposition_check,
                                diagonal_closed_form, integrate_mean,
                                moment_stream)

TWO_PI = 2.0 * math.pi


class TestDiagonal:
    def test_two_term_hand_value(self):
        # T=8pi, sigma=0, unweighted: (8pi-2pi) + (8pi-8pi) = 6pi
        assert diagonal_closed_form(0.0, 8.0 * math.pi, False) == pytest.approx(
            6.0 * math.pi, rel=1e-14)

    def test_weight_degenerates_at_sigma_zero(self):
        T = 8.0 * math.pi
        assert diagonal_closed_form(0.0, T, True) == pytest.approx(
            diagonal_closed_form(0.0, T, False), rel=1e-14)

    def test_log_branch_matches_direct_sum(self):
        # weighted sigma=-1 at T = 2pi*1e4 equals 4pi sum n^2 log(100/n)
        T = TWO_PI * 1.0e4
        n = np.arange(1, 101, dtype=np.float64)
        want = 4.0 * math.pi * float(np.sum(n * n * np.log(100.0 / n)))
        assert diagonal_closed_form(-1.0, T, True) == pytest.approx(want, rel=1e-13)

    def test_general_weighted_vs_quadrature(self):
        # independent route: integrate the weight over each term's window
        sigma, T = 0.75, TWO_PI * 30.0
        total = 0.0
        for nn in range(1, int(math.sqrt(T / TWO_PI)) + 1):
            lo = TWO_PI * nn * nn
            grid = np.linspace(lo, T, 20001)
            total += nn ** (-2.0 * sigma) * float(
                np.trapezoid((grid / TWO_PI) ** sigma, grid))
        assert diagonal_closed_form(sigma, T, True) == pytest.approx(total, rel=1e-8)


class TestCrossTerm:
    def test_empty_pair_set(self):
        assert cross_term_value(0.0, 7.0 * math.pi, False) == 0.0
        assert cross_term_value(0.0, 7.0 * math.pi, True) == 0.0

    def test_degenerate_interval_at_8pi(self):
        # the only pair (1,2) integrates over [8pi, 8pi]
        assert cross_term_value(0.0, 8.0 * math.pi, False) == pytest.approx(0.0, abs=1e-14)

    def test_unweighted_closed_form_vs_quadrature(self):
        # dual route: sine antiderivative against per-pair quadrature
        sigma, T = 0.0, TWO_PI * 25.0
        N = int(math.sqrt(T / TWO_PI))
        by_quad = 0.0
        for nn in range(2, N + 1):
            lo = TWO_PI * nn * nn
            if lo >= T:  # term enters exactly at T: empty window
                continue
            for m in range(1, nn):
                L = math.log(nn / m)
                by_quad += 2.0 * (nn * m) ** (-sigma) * osc_integral(lo, T, 0.0, L)
        assert cross_term_value(sigma, T, False) == pytest.approx(by_quad, abs=1e-7)

    def test_weighted_envelope(self):
        # |cross| <= 6 (T/2pi)^s * sum_{m<n} 1/((nm)^s log(n/m)): the
        # oscillatory-integral bound applied pairwise
        sigma, T = 1.0, TWO_PI * 100.0
        N = int(math.sqrt(T / TWO_PI))
        envelope_sum = 0.0
        for nn in range(2, N + 1):
            for m in range(1, nn):
                envelope_sum += (nn * m) ** (-sigma) / math.log(nn / m)
        bound = 6.0 * (T / TWO_PI) ** sigma * envelope_sum
        assert abs(cross_term_value(sigma, T, True)) <= bound

    def test_weighted_sigma_zero_is_unweighted(self):
        # w = (t/2pi)^0 = 1: both take the sine antiderivative, bit for bit
        T = TWO_PI * 400.0
        assert cross_term_value(0.0, T, True) == cross_term_value(0.0, T, False)

    def test_pair_budget(self):
        with pytest.raises(BudgetExceededError):
            cross_term_value(0.0, TWO_PI * 1501.0**2, False)


class TestDecomposition:
    @pytest.mark.parametrize("sigma,weighted", [
        (0.0, True), (0.5, True), (1.0, False),
    ])
    def test_criterion_samples(self, sigma, weighted):
        assert decomposition_check(sigma, TWO_PI * 400.0, weighted) <= 1e-6

    def test_parts_recorded(self):
        T = TWO_PI * 100.0
        assert diagonal_closed_form(0.5, T, True) >= 0.0
        assert math.isfinite(cross_term_value(0.5, T, True))


class TestIntegrateMean:
    def test_positivity_and_monotonicity(self):
        grid = [TWO_PI * x for x in (10.0, 40.0, 100.0)]
        samples = integrate_mean(0.5, grid, weighted=True)
        raws = [s.raw_integral for s in samples]
        assert all(r >= 0.0 for r in raws)
        assert all(b >= a for a, b in zip(raws, raws[1:]))
        for s in samples:
            assert s.value == s.raw_integral / s.T

    def test_panel_refinement_within_quad_error(self):
        # quad_error, the panel-halving estimate, covers the stream's true
        # error, measured against the independent diagonal + cross split
        T = TWO_PI * 100.0
        for sigma, weighted in ((0.0, True), (0.5, True), (-1.0, True),
                                (0.5, False), (2.0, False)):
            sample = integrate_mean(sigma, [T], weighted)[0]
            split = (diagonal_closed_form(sigma, T, weighted)
                     + cross_term_value(sigma, T, weighted))
            assert abs(sample.raw_integral - split) <= sample.quad_error, (sigma, weighted)

    def test_quad_error_cumulative_per_row(self):
        # grid points at term-entry points 2 pi n^2, which are panel edges
        # anyway, so the single-T stream has the same panels
        grid = [TWO_PI * k * k for k in (10, 20, 30)]
        errs = [s.quad_error for s in integrate_mean(0.5, grid, weighted=True)]
        assert errs[0] < errs[1] < errs[2]
        alone = integrate_mean(0.5, grid[-1:], weighted=True)[0]
        assert errs[-1] == alone.quad_error

    def test_deterministic_repeat(self):
        grid = [TWO_PI * 50.0, TWO_PI * 120.0]
        a = integrate_mean(1.0, grid, weighted=False)
        b = integrate_mean(1.0, grid, weighted=False)
        assert [s.raw_integral for s in a] == [s.raw_integral for s in b]
        assert [s.n_evals for s in a] == [s.n_evals for s in b]

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            integrate_mean(0.0, [TWO_PI * 10.0, TWO_PI * 5.0], True)
        with pytest.raises(ValueError):
            integrate_mean(0.0, [1.0], True)
        assert integrate_mean(0.0, [], True) == []

    def test_stream_is_cumulative(self):
        stream = moment_stream(0.0, TWO_PI * 60.0, weighted=True)
        assert stream.t[0] == 1.0
        assert stream.F[0] == 0.0
        assert all(b >= a for a, b in zip(stream.F, stream.F[1:]))
