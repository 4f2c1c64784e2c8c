"""Second-moment integrals of the truncated main sum, two independent ways.

With S(t) the truncated Dirichlet sum and w(t) = (t/2pi)^sigma or 1, the
engine computes

    F(T) = int_1^T |S(t)|^2 w(t) dt

(a) by a streaming composite Gauss-Legendre pass over a deterministic
panel decomposition, and (b) through the exact split

    F(T) = [diagonal]  sum_{n} n^{-2s} int_{2pi n^2}^T w(t) dt
         + [cross]   2 sum_{m<n} (nm)^{-s} int_{2pi n^2}^T w(t) cos(t log(n/m)) dt,

whose diagonal part has a closed form and whose cross part is either an
exact sine difference (unweighted) or a per-pair oscillatory quadrature
(weighted).  The two routes agreeing to quadrature tolerance is the core
exactness check of the package.

The quadrature integrand is |main_sum|^2 throughout: this is the quantity
the decomposition identity and the asymptotic envelopes are written for,
and it is what stays affordable over grids reaching T = 2pi*1e4.  Pointwise
cross-validation of the truncated sum against the defining contour
integral lives in :mod:`auxzeta.aux_eval`.

Determinism contract: the panel decomposition is a pure function of
(T_max, grid, term-entry points), panels are folded in ascending order,
and no threading happens inside a single stream, so identical
configurations give bit-identical samples regardless of the caller's
thread budget.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .aux_eval import TWO_PI, n_main_terms
from .bound_checks import _GLW8, _GLX8, osc_integral
from .errors import BudgetExceededError

_PAIR_BUDGET_SQRT = 1500.0
_CHUNK_PANELS = 4096


@dataclass(frozen=True)
class MeanValueSample:
    """One value of the (1/T)-normalized second-moment integral."""

    sigma: float
    T: float
    weighted: bool
    value: float
    raw_integral: float
    quad_error: float
    n_evals: int


@dataclass(frozen=True)
class Decomposition:
    """Diagonal and cross parts of the moment integral at (sigma, T)."""

    diagonal: float
    cross: float
    sigma: float
    T: float
    weighted: bool


def diagonal_closed_form(sigma: float, T: float, weighted: bool) -> float:
    """Exact diagonal part: sum_n n^{-2s} int_{2pi n^2}^T w(t) dt.

    Weighted general case integrates (t/2pi)^s in closed form; the
    weighted sigma = -1 case is logarithmic and handled separately;
    unweighted is a plain width sum.
    """
    if not T >= TWO_PI:
        raise ValueError("requires T >= 2*pi")
    N = n_main_terms(T)
    if N < 1:
        return 0.0
    n = np.arange(1, N + 1, dtype=np.float64)
    if not weighted:
        return float(np.sum(n ** (-2.0 * sigma) * (T - TWO_PI * n * n)))
    if sigma == -1.0:
        return float(TWO_PI * np.sum(n * n * np.log(T / (TWO_PI * n * n))))
    return float(
        TWO_PI ** (-sigma)
        * np.sum((T ** (sigma + 1.0) - (TWO_PI * n * n) ** (sigma + 1.0))
                 / (n ** (2.0 * sigma) * (sigma + 1.0)))
    )


def cross_term_value(sigma: float, T: float, weighted: bool,
                     tol: float = 1.0e-10) -> float:
    """Cross part: 2 sum_{m<n<=sqrt(T/2pi)} (nm)^{-s} int_{2pi n^2}^T w cos(t L) dt
    with L = log(n/m).

    Unweighted pairs have the exact antiderivative sin(tL)/L; weighted pairs
    reuse the adaptive oscillatory quadrature.  Pair count is budgeted at
    sqrt(T/2pi) <= 1500.
    """
    if not T >= TWO_PI:
        raise ValueError("requires T >= 2*pi")
    x = math.sqrt(T / TWO_PI)
    if x > _PAIR_BUDGET_SQRT:
        raise BudgetExceededError(f"sqrt(T/2pi) = {x:.1f} exceeds {_PAIR_BUDGET_SQRT}")
    N = n_main_terms(T)
    if N < 2:
        return 0.0
    total = 0.0
    if not weighted:
        for nn in range(2, N + 1):
            m = np.arange(1, nn, dtype=np.float64)
            L = math.log(nn) - np.log(m)
            lo = TWO_PI * nn * nn
            coef = nn ** (-sigma) * m ** (-sigma)
            total += float(np.sum(coef * (np.sin(T * L) - np.sin(lo * L)) / L))
        return 2.0 * total
    scale = TWO_PI ** (-sigma)
    for nn in range(2, N + 1):
        lo = TWO_PI * nn * nn
        if lo >= T:
            continue
        for m in range(1, nn):
            L = math.log(nn / m)
            part = osc_integral(lo, T, sigma, L, tol=tol)
            total += nn ** (-sigma) * m ** (-sigma) * scale * part
    return 2.0 * total


def decomposition(sigma: float, T: float, weighted: bool) -> Decomposition:
    return Decomposition(
        diagonal=diagonal_closed_form(sigma, T, weighted),
        cross=cross_term_value(sigma, T, weighted),
        sigma=sigma, T=T, weighted=weighted,
    )


def panel_width(t: float) -> float:
    """Streaming panel width, tied to the fastest oscillation log sqrt(t/2pi)
    in |S|^2; the pi/4 factor keeps at least eight panels per period."""
    return min(0.25, math.pi / (4.0 * math.log(2.0 + math.sqrt(t / TWO_PI))))


def _panel_edges(T_max: float, markers: list[float]) -> np.ndarray:
    """Deterministic panel decomposition of [1, T_max].

    Edges are placed by marching with `panel_width` and snapped to every
    marker: the term-entry points 2 pi n^2 (where |S|^2 jumps) and every
    requested grid T (where a sample is emitted).
    """
    special = sorted({TWO_PI * k * k for k in range(1, int(math.sqrt(T_max / TWO_PI)) + 2)
                      if 1.0 < TWO_PI * k * k < T_max}
                     | {float(m) for m in markers if 1.0 < m < T_max}
                     | {T_max})
    edges = [1.0]
    t = 1.0
    si = 0
    while t < T_max:
        while si < len(special) and special[si] <= t + 1e-12:
            si += 1
        ceiling = special[si] if si < len(special) else T_max
        t = min(t + panel_width(t), ceiling)
        edges.append(t)
    return np.asarray(edges)


def _abs_sq_main_sum(sigma: float, t_nodes: np.ndarray, weighted: bool) -> np.ndarray:
    """|S(t)|^2 w(t) on a flat node array, vectorized over a shared term matrix."""
    x2 = t_nodes / TWO_PI
    N = np.floor(np.sqrt(x2)).astype(np.int64)
    N += ((N + 1).astype(np.float64) ** 2 <= x2)
    N -= (N.astype(np.float64) ** 2 > x2)
    n_max = int(N.max()) if len(N) else 0
    if n_max == 0:
        vals = np.zeros_like(t_nodes)
    else:
        n = np.arange(1, n_max + 1, dtype=np.float64)
        phases = np.exp(-1j * np.outer(t_nodes, np.log(n)))
        terms = phases * (n ** (-sigma))[None, :]
        terms *= (n[None, :] <= N[:, None])
        S = terms.sum(axis=1)
        vals = S.real**2 + S.imag**2
    if weighted:
        vals = vals * x2**sigma
    return vals


def _fold_panels(sigma: float, weighted: bool, a: np.ndarray, b: np.ndarray
                 ) -> tuple[np.ndarray, int]:
    """Gauss-Legendre order-8 contributions of panels [a_i, b_i], in order."""
    mid = 0.5 * (a + b)
    hw = 0.5 * (b - a)
    nodes = (mid[:, None] + hw[:, None] * _GLX8[None, :]).ravel()
    vals = _abs_sq_main_sum(sigma, nodes, weighted).reshape(len(a), -1)
    return (vals * _GLW8[None, :]).sum(axis=1) * hw, nodes.size


@dataclass(frozen=True)
class MomentStream:
    """Cumulative F(T) sampled at every panel edge of one streaming pass."""

    sigma: float
    weighted: bool
    t: np.ndarray
    F: np.ndarray


def _stream(sigma: float, T_grid: list[float], weighted: bool,
            panel_scale: float = 1.0) -> tuple[dict, MomentStream, float, int]:
    """One deterministic streaming pass to max(T_grid).

    Returns ({T: F(T)}, full edge stream, quad_error, n_evals).  The
    quadrature error is estimated by one step-halving verification per
    decade of t, on a leading window of that decade, scaled to the decade's
    contribution, plus a roundoff floor.
    """
    T_max = max(T_grid)
    edges = _panel_edges(T_max, T_grid)
    if panel_scale != 1.0:
        k = max(1, int(round(1.0 / panel_scale)))
        refined = []
        for a, b in zip(edges[:-1], edges[1:]):
            refined.extend(np.linspace(a, b, k + 1)[:-1])
        refined.append(edges[-1])
        edges = np.asarray(refined)
    a_all, b_all = edges[:-1], edges[1:]

    F_edges = np.zeros(len(edges))
    n_evals = 0
    F = 0.0
    for i0 in range(0, len(a_all), _CHUNK_PANELS):
        a = a_all[i0:i0 + _CHUNK_PANELS]
        b = b_all[i0:i0 + _CHUNK_PANELS]
        contrib, ne = _fold_panels(sigma, weighted, a, b)
        n_evals += ne
        cs = np.cumsum(contrib)
        F_edges[i0 + 1:i0 + 1 + len(cs)] = F + cs
        F = float(F + cs[-1])

    # per-decade halving verification on a leading window
    quad_err = 0.0
    lo = 1.0
    while lo < T_max:
        hi = min(lo * 10.0, T_max)
        sel = np.nonzero((a_all >= lo) & (a_all < hi))[0]
        if len(sel):
            win = sel[:64]
            aw, bw = a_all[win], b_all[win]
            coarse, ne1 = _fold_panels(sigma, weighted, aw, bw)
            mw = 0.5 * (aw + bw)
            ah = np.concatenate([aw, mw])
            bh = np.concatenate([mw, bw])
            fine, ne2 = _fold_panels(sigma, weighted, ah, bh)
            n_evals += ne1 + ne2
            win_val = float(np.sum(np.abs(coarse)))
            diff = abs(float(np.sum(coarse) - np.sum(fine)))
            rel = diff / win_val if win_val > 0 else 0.0
            decade_contrib = float(F_edges[np.searchsorted(edges, hi)]
                                   - F_edges[np.searchsorted(edges, lo)])
            quad_err += rel * abs(decade_contrib)
        lo = hi
    quad_err += 1e-13 * abs(F) + 64.0 * 2.220446049250313e-16 * abs(F)

    samples = {}
    for T in T_grid:
        j = int(np.searchsorted(edges, T - 1e-9))
        samples[T] = float(F_edges[min(j, len(edges) - 1)])
    stream = MomentStream(sigma, weighted, edges, F_edges)
    return samples, stream, quad_err, n_evals


def integrate_mean(sigma: float, t_grid: list[float], weighted: bool,
                   panel_scale: float = 1.0) -> list[MeanValueSample]:
    """Streaming moment values at each requested T (sorted ascending, >= 2pi).

    One pass serves the whole grid; `panel_scale` < 1 refines every panel
    (used by the refinement contract test).
    """
    if len(t_grid) == 0:
        return []
    grid = [float(T) for T in t_grid]
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ValueError("T grid must be strictly ascending")
    if grid[0] < TWO_PI:
        raise ValueError("T grid must start at or above 2*pi")
    samples, _, quad_err, n_evals = _stream(sigma, grid, weighted, panel_scale)
    out = []
    for T in grid:
        raw = samples[T]
        out.append(MeanValueSample(sigma, T, weighted, raw / T, raw,
                                   quad_err, n_evals))
    return out


def moment_stream(sigma: float, T_max: float, weighted: bool) -> MomentStream:
    """Cumulative F(T) on the full panel grid up to T_max (for transforms)."""
    _, stream, _, _ = _stream(sigma, [float(T_max)], weighted)
    return stream


def decomposition_check(sigma: float, T: float, weighted: bool) -> float:
    """Relative discrepancy |streamed integral - (diagonal + cross)| over
    (diagonal + |cross|).  Both sides are computed independently; the
    identity is exact, so this measures pure quadrature error.
    """
    parts = decomposition(sigma, T, weighted)
    samples, _, _, _ = _stream(sigma, [float(T)], weighted)
    lhs = samples[float(T)]
    rhs = parts.diagonal + parts.cross
    return abs(lhs - rhs) / (parts.diagonal + abs(parts.cross))
