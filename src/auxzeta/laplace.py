"""Numeric Laplace transforms of streamed moment integrals.

For F(T) = int_1^T |S|^2 (t/2pi)^sigma dt the transform

    int_1^inf e^{-eps t} dF(t) = eps int_1^inf F(t) e^{-eps t} dt

is evaluated by integrating the piecewise-linear interpolant of the
streamed F exactly against e^{-eps t} interval by interval, with the part
beyond the stream's reach bounded analytically (twice the main-term
envelope, integrated by parts).  The scan compares the numeric transform
with the small-eps predictor (2 eps)^{-3/2}/(1-2 sigma) and records the
ratio; the limit claim shows up as ratio -> 1 along a descending eps grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .aux_eval import TWO_PI
from .errors import CoverageError
from .mean_value import MomentStream, moment_stream
from .predictors import predict_laplace_weighted

_MIN_EPS_TMAX = 40.0
# 42/eps rather than the bare minimum 40/eps: at eps*T_max = 40 the
# analytic tail bound lands at ~1.7e-15 of the transform, just above the
# 1e-15 contract; two more e-folds buy three orders of margin.
DEFAULT_EPS_TMAX = 42.0


@dataclass(frozen=True)
class LaplaceScanRow:
    """One (sigma, epsilon) comparison of numeric transform vs predictor."""

    sigma: float
    epsilon: float
    numeric: float
    predicted: float
    ratio: float
    tail_bound: float


def power_law_stream(exponent: float, t_max: float, step: float = 0.02,
                     sigma: float = 0.0, weighted: bool = True) -> MomentStream:
    """Synthetic cumulative stream F(t) = t^exponent on a uniform grid
    (calibration input that isolates interpolation error from model error)."""
    t = np.arange(1.0, t_max + step, step)
    return MomentStream(sigma=sigma, weighted=weighted, t=t, F=t**exponent)


def laplace_numeric(sigma: float, epsilon: float, stream: MomentStream) -> float:
    """eps * int_1^{T_max} F(t) e^{-eps t} dt with F piecewise linear on the
    stream grid; each interval is integrated in closed form with
    cancellation-safe kernels, so the only error is the interpolation of F.

    Requires eps * T_max >= 40 so the un-streamed tail is negligible
    relative to the transform.
    """
    if not epsilon > 0.0:
        raise ValueError("epsilon must be positive")
    t = np.asarray(stream.t, dtype=np.float64)
    F = np.asarray(stream.F, dtype=np.float64)
    if len(t) < 2:
        raise CoverageError("stream needs at least two samples")
    t_max = float(t[-1])
    if epsilon * t_max < _MIN_EPS_TMAX:
        raise CoverageError(
            f"eps * T_max = {epsilon * t_max:.2f} < {_MIN_EPS_TMAX}; "
            "stream does not cover the transform")
    t0, t1 = t[:-1], t[1:]
    F0, F1 = F[:-1], F[1:]
    dt = t1 - t0
    x = epsilon * dt
    slope = (F1 - F0) / dt
    e0 = np.exp(-epsilon * t0)
    # int_0^dt e^{-eps u} du       = dt * psi(x),  psi = (1 - e^-x)/x
    # int_0^dt u e^{-eps u} du     = dt^2 * phi(x), phi = (1-(1+x)e^-x)/x^2
    small = x < 1.0e-5
    with np.errstate(divide="ignore", invalid="ignore"):
        psi = np.where(small, 1.0 - x / 2.0 + x * x / 6.0,
                       -np.expm1(-x) / np.where(small, 1.0, x))
        phi = np.where(small, 0.5 - x / 3.0 + x * x / 8.0,
                       (1.0 - (1.0 + x) * np.exp(-x)) / np.where(small, 1.0, x * x))
    pieces = e0 * (F0 * dt * psi + slope * dt * dt * phi)
    return epsilon * float(np.sum(pieces))


def laplace_tail_bound(sigma: float, epsilon: float, t_max: float) -> float:
    """Contribution bound for t > t_max, taking F(t) <= 2 * envelope with
    envelope = 2 t^{3/2} / (3 (1-2s) sqrt(2pi)), integrated by parts twice:

        int_A^inf t^{3/2} e^{-et} dt
            <= e^{-eA} A^{3/2}/e * (1 + 1.5/(eA) + 0.75/(eA)^2).
    """
    if sigma >= 0.5:
        raise ValueError("tail envelope requires sigma < 1/2")
    ea = epsilon * t_max
    coef = 2.0 * 2.0 / (3.0 * (1.0 - 2.0 * sigma) * math.sqrt(TWO_PI))
    incomplete = math.exp(-ea) * t_max**1.5 / epsilon \
        * (1.0 + 1.5 / ea + 0.75 / (ea * ea))
    return epsilon * coef * incomplete


def laplace_ratio_scan(sigma: float, epsilon_grid: list[float],
                       stream: MomentStream | None = None) -> list[LaplaceScanRow]:
    """Rows (numeric, predicted, ratio, tail bound) over a descending eps grid.

    One moment stream serves every epsilon.  Its reach is sized so that the
    smallest epsilon gets eps*T_max >= 42 and the largest at least 60 (far
    from the asymptotic regime the transform itself is small, so the bigger
    margin keeps the tail below 1e-15 of it, which is asserted per row).
    """
    if sigma >= 0.5:
        raise ValueError("scan requires sigma < 1/2")
    eps_list = [float(e) for e in epsilon_grid]
    if any(b >= a for a, b in zip(eps_list, eps_list[1:])):
        raise ValueError("epsilon grid must be strictly descending")
    t_need = max(DEFAULT_EPS_TMAX / min(eps_list), 60.0 / max(eps_list))
    if stream is None:
        stream = moment_stream(sigma, t_need, weighted=True)
    if stream.t[-1] < t_need - 1e-9:
        raise CoverageError("provided stream too short for the epsilon grid")
    rows = []
    for eps in eps_list:
        numeric = laplace_numeric(sigma, eps, stream)
        predicted = predict_laplace_weighted(sigma, eps)
        tail = laplace_tail_bound(sigma, eps, float(stream.t[-1]))
        if not tail <= 1.0e-15 * numeric:
            raise CoverageError(
                f"tail bound {tail:.3e} above 1e-15 of the transform; "
                "stream reach insufficient")
        rows.append(LaplaceScanRow(sigma, eps, numeric, predicted,
                                   numeric / predicted, tail))
    return rows
