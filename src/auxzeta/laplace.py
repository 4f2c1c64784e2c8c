"""Numeric Laplace transforms of streamed moment integrals.

For F(T) = int_1^T |S|^2 (t/2pi)^sigma dt the transform

    int_1^inf e^{-eps t} dF(t) = eps int_1^inf F(t) e^{-eps t} dt

is summed over the stream's own Gauss-Legendre nodes, each node's share of
F weighted by e^{-eps t} there, with the part beyond the stream's reach
bounded analytically (twice the main-term envelope, integrated by parts).
The scan compares the numeric transform with the small-eps predictor
(2 eps)^{-3/2}/(1-2 sigma) and records the ratio; the limit claim shows up
as ratio -> 1 along a descending eps grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .aux_eval import TWO_PI
from .bound_checks import _GLW8, _GLX8
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
    n_evals: int  # nodes of the one stream that serves the whole scan


def power_law_stream(exponent: float, t_max: float) -> MomentStream:
    """Synthetic measure d(t^exponent) on order-8 panels of width 0.02 from 1
    to at least t_max (calibration input that isolates quadrature error
    from model error)."""
    k = math.ceil((t_max - 1.0) / 0.02)
    t = 1.0 + 0.02 * (np.arange(k)[:, None] + 0.5) + 0.01 * _GLX8
    return MomentStream(1.0 + 0.02 * k,
                        [(1.0, 0.02, 0.01 * _GLW8 * exponent * t ** (exponent - 1.0))])


def laplace_numeric(epsilon: float, stream: MomentStream) -> float:
    """int_1^{T_max} e^{-eps t} dF summed over the stream's nodes, e^{-eps t} a
    panel factor times a node factor; requires eps * T_max >= 40 so the
    un-streamed tail is negligible relative to the transform."""
    if not epsilon > 0.0:
        raise ValueError("epsilon must be positive")
    if epsilon * stream.t_max < _MIN_EPS_TMAX:
        raise CoverageError(f"eps * T_max = {epsilon * stream.t_max:.2f} < {_MIN_EPS_TMAX}; "
                            "stream does not cover the transform")
    return math.fsum(
        float(np.einsum("p,pm,m->", np.exp(-epsilon * (lo + h * (np.arange(len(dF)) + 0.5))),
                        dF, np.exp(-0.5 * epsilon * h * _GLX8)))
        for lo, h, dF in stream.runs)


def laplace_tail_bound(sigma: float, epsilon: float, t_max: float) -> float:
    """Contribution bound for t > t_max, taking F(t) <= 2 * envelope with
    envelope = 2 t^{3/2} / (3 (1-2s) sqrt(2pi)), integrated by parts twice:

        int_A^inf t^{3/2} e^{-et} dt
            <= e^{-eA} A^{3/2}/e * (1 + 1.5/(eA) + 0.75/(eA)^2).

    It bounds eps int_A^inf F e^{-et} dt, which is at least the omitted
    int_A^inf e^{-et} dF = eps int_A^inf F e^{-et} dt - F(A) e^{-eA}.
    """
    if sigma >= 0.5:
        raise ValueError("tail envelope requires sigma < 1/2")
    ea = epsilon * t_max
    coef = 2.0 * 2.0 / (3.0 * (1.0 - 2.0 * sigma) * math.sqrt(TWO_PI))
    incomplete = math.exp(-ea) * t_max**1.5 / epsilon \
        * (1.0 + 1.5 / ea + 0.75 / (ea * ea))
    return epsilon * coef * incomplete


def laplace_ratio_scan(sigma: float, epsilon_grid: list[float], threads: int = 1
                       ) -> list[LaplaceScanRow]:
    """Rows (numeric, predicted, ratio, tail bound) over a descending eps grid.

    One moment stream on `threads` threads serves every epsilon.  Its reach
    is sized so that the smallest epsilon gets eps*T_max >= 42 and the largest
    at least 60 (far from the asymptotic regime the transform itself is small,
    so the bigger margin keeps the tail below 1e-15 of it, asserted per row).
    """
    if sigma >= 0.5:
        raise ValueError("scan requires sigma < 1/2")
    eps_list = [float(e) for e in epsilon_grid]
    if any(b >= a for a, b in zip(eps_list, eps_list[1:])):
        raise ValueError("epsilon grid must be strictly descending")
    t_need = max(DEFAULT_EPS_TMAX / min(eps_list), 60.0 / max(eps_list))
    stream = moment_stream(sigma, t_need, True, threads)
    n_evals = sum(dF.size for _, _, dF in stream.runs)
    rows = []
    for eps in eps_list:
        numeric = laplace_numeric(eps, stream)
        predicted = predict_laplace_weighted(sigma, eps)
        tail = laplace_tail_bound(sigma, eps, stream.t_max)
        if not tail <= 1.0e-15 * numeric:
            raise CoverageError(
                f"tail bound {tail:.3e} above 1e-15 of the transform; "
                "stream reach insufficient")
        rows.append(LaplaceScanRow(sigma, eps, numeric, predicted,
                                   numeric / predicted, tail, n_evals))
    return rows
