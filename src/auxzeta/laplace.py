"""Numeric Laplace transforms of streamed moment integrals.

For F(T) = int_1^T |S|^2 w dt, w = (t/2pi)^sigma or 1, the transform

    int_1^inf e^{-eps t} dF(t) = eps int_1^inf F(t) e^{-eps t} dt

is summed over the stream's own Gauss-Legendre nodes, each node's share of
F weighted by e^{-eps t} there, with the part beyond the stream's reach
bounded from |S(t)| <= sum_{n <= sqrt(t/2pi)} n^{-sigma} at every sigma.
The scan compares it with the weighted or unweighted table's transform
(`Prediction.laplace`); the limit claim is ratio -> 1 as eps descends.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .aux_eval import TWO_PI
from .bound_checks import _GLW8, _GLX8
from .errors import CoverageError
from .mean_value import _PAIR_BUDGET_SQRT, MomentStream, moment_stream
from .predictors import predict_unweighted, predict_weighted

_MIN_EPS_TMAX = 40.0
DEFAULT_EPS_TMAX = 42.0  # a scan's first reach eps_min T_max; criterion 6's synthetic reach


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


def laplace_tail_bound(sigma: float, weighted: bool, epsilon: float, t_max: float) -> float:
    """Proven bound on the omitted int_{t_max}^inf e^{-eps t} |S|^2 w dt.

    With x = sqrt(t/2pi), S = 0 for x < 1 and |S| <= H = sum_{n <= x} n^{-sigma}.
    For x >= 1, H <= c x^b: for sigma <= 0, H <= x x^{-sigma} (c = 1,
    b = 1 - sigma); for sigma > 0, n^{-sigma} <= int_{n-1}^n u^{-sigma} du,
    u^{-sigma} <= x^{b0}/u on [1, x] (b0 = max(1 - sigma, 0)) and
    log x <= (4/e) x^{1/4} give H <= 1 + x^{b0} log x <= (1 + 4/e) x^b (c = 5/2,
    b = b0 + 1/4).  So |S|^2 w <= c^2 (t/2pi)^a, a = b + sigma if weighted
    else b, a > 0.  For y = eps t_max > a (else inf), u = y + v and
    (1 + v/y)^a <= e^{av/y} give Gamma(1+a, y) <= y^a e^{-y}/(1 - a/y), so
    omitted <= c^2 (2pi)^{-a} eps^{-a-1} Gamma(1+a, y) is at most

        c^2 (t_max/2pi)^a e^{-y} / (eps - a/t_max).
    """
    c, b = (1.0, 1.0 - sigma) if sigma <= 0.0 else (2.5, max(1.0 - sigma, 0.0) + 0.25)
    a = b + sigma if weighted else b
    if not epsilon * t_max > a:
        return math.inf
    return c * c * math.exp(a * math.log(t_max / TWO_PI) - epsilon * t_max) / (epsilon - a / t_max)


def laplace_ratio_scan(sigma: float, epsilon_grid: list[float], weighted: bool,
                       threads: int = 1) -> list[LaplaceScanRow]:
    """Rows (numeric, predicted, ratio, tail bound) over a descending eps grid,
    predicted from the table `weighted` names.

    One moment stream on `threads` threads serves every epsilon.  Its reach
    eps_min T_max starts at 42 (with T_max >= 60/eps_max) and grows by whole
    units until every tail bound is at most 1e-16 of its prediction (which
    can be near 0 where zeta(2 sigma) < 0) or the stream's pair budget is
    reached.  A row whose tail bound is above 1e-15 of its transform raises.
    """
    eps_list = [float(e) for e in epsilon_grid]
    if any(b >= a for a, b in zip(eps_list, eps_list[1:])):
        raise ValueError("epsilon grid must be strictly descending")
    table = (predict_weighted if weighted else predict_unweighted)(sigma)
    predicted = [table.laplace(eps) for eps in eps_list]
    t_need = max(DEFAULT_EPS_TMAX / eps_list[-1], 60.0 / eps_list[0])
    t_budget = TWO_PI * _PAIR_BUDGET_SQRT ** 2  # the farthest a moment stream goes
    while t_need < t_budget and any(
            laplace_tail_bound(sigma, weighted, eps, t_need) > 1.0e-16 * abs(pred)
            for eps, pred in zip(eps_list, predicted)):
        t_need = min(t_need + 1.0 / eps_list[-1], t_budget)
    stream = moment_stream(sigma, t_need, weighted, threads)
    n_evals = sum(dF.size for _, _, dF in stream.runs)
    rows = []
    for eps, pred in zip(eps_list, predicted):
        numeric = laplace_numeric(eps, stream)
        tail = laplace_tail_bound(sigma, weighted, eps, stream.t_max)
        if not tail <= 1.0e-15 * numeric:
            raise CoverageError(f"at epsilon {eps!r} the tail bound {tail:.3e} is above 1e-15 "
                                f"of the transform {numeric:.3e}; stream reach insufficient")
        rows.append(LaplaceScanRow(sigma, eps, numeric, pred, numeric / pred, tail, n_evals))
    return rows
