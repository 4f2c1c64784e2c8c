"""Brute-force oracles for the bound infrastructure behind the moment proofs.

Three families:

* oscillatory power integrals  int_a^b t^alpha cos(beta t) dt  and the
  first-derivative bound  3/|beta| * max(a^alpha, b^alpha);
* partial power sums  sum_{n<=x} n^{-2 sigma}  against their three-case
  asymptotic main terms;
* the two double sums over pairs m < n <= x weighted by 1/log(n/m), whose
  growth orders are checked as bounded ratios on doubling grids (the
  implied constants depend on sigma, so no fixed constant is asserted).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .aux_eval import TWO_PI
from .errors import BudgetExceededError, QuadratureConvergenceError
from .special_functions import EULER_GAMMA, real_zeta

# Euler's constant beyond binary64, for the extended-precision check branch.
EULER_GAMMA_HIGH = "0.57721566490153286060651209008240243104215933593992"

_GLX8, _GLW8 = np.polynomial.legendre.leggauss(8)

_DOUBLE_SUM_BUDGET = 3000
_POWER_SUM_BUDGET = 2.0e7

QUOTIENT_KIND = "sigma_quotient"   # n^sigma / m^sigma terms, sigma < 0
PRODUCT_KIND = "sigma_product"     # 1 / (n m)^sigma terms


@dataclass(frozen=True)
class BoundCheck:
    """Observed quantity against its claimed bound (or growth envelope)."""

    lhs: float
    rhs_bound: float
    ratio: float
    inputs: dict = field(default_factory=dict)


def osc_integral(a: float, b: float, alpha: float, beta: float,
                 tol: float = 1.0e-10) -> float:
    """int_a^b t^alpha cos(beta t) dt by composite Gauss-Legendre panels,
    refined until successive halvings agree to tol*(1+|value|).

    Requires 0 < a < b and beta != 0; the power factor is evaluated away
    from 0 so any real alpha is fine.
    """
    if not (0.0 < a < b):
        raise ValueError(f"need 0 < a < b, got a={a}, b={b}")
    if beta == 0.0:
        raise ValueError("beta must be nonzero")

    span = b - a
    period = TWO_PI / abs(beta)
    base_panels = max(8, int(math.ceil(6.0 * span / period)))

    def run(n_panels: int) -> float:
        edges = np.linspace(a, b, n_panels + 1)
        mid = 0.5 * (edges[:-1] + edges[1:])
        hw = 0.5 * (edges[1:] - edges[:-1])
        t = (mid[:, None] + hw[:, None] * _GLX8[None, :]).ravel()
        vals = t**alpha * np.cos(beta * t)
        vals = vals.reshape(n_panels, -1)
        return float(np.sum((vals * _GLW8[None, :]).sum(axis=1) * hw))

    v1 = run(base_panels)
    for _ in range(12):
        base_panels *= 2
        v2 = run(base_panels)
        if abs(v2 - v1) <= tol * (1.0 + abs(v2)):
            return v2
        v1 = v2
    raise QuadratureConvergenceError(
        f"oscillatory integral (a={a}, b={b}, alpha={alpha}, beta={beta}) "
        "did not stabilize")


def osc_bound_check(a: float, b: float, alpha: float, beta: float) -> BoundCheck:
    """Checks |int_a^b t^alpha cos(beta t) dt| <= 3/|beta| max(a^alpha, b^alpha)."""
    lhs = abs(osc_integral(a, b, alpha, beta))
    rhs = 3.0 / abs(beta) * max(a**alpha, b**alpha)
    return BoundCheck(lhs, rhs, lhs / rhs,
                      {"a": a, "b": b, "alpha": alpha, "beta": beta})


def power_sum_partial(x: float, sigma: float) -> float:
    """sum_{n <= x} n^{-2 sigma} by direct summation."""
    if x < 1.0:
        return 0.0
    if x > _POWER_SUM_BUDGET:
        raise BudgetExceededError(f"direct summation capped at x = {_POWER_SUM_BUDGET:g}")
    N = int(math.floor(x + 1e-9))
    total = 0.0
    for lo in range(1, N + 1, 4_000_000):
        hi = min(N, lo + 4_000_000 - 1)
        n = np.arange(lo, hi + 1, dtype=np.float64)
        total += float(np.sum(n ** (-2.0 * sigma)))
    return total


def power_sum_asymptotic(x: float, sigma: float) -> float:
    """Main terms of the partial power sum, by case:

    sigma <= 0:            x^{1-2s}/(1-2s)
    0 < sigma, sigma != 1/2: zeta(2s) + x^{1-2s}/(1-2s)
    sigma = 1/2:           log x + gamma
    """
    if sigma == 0.5:
        return math.log(x) + EULER_GAMMA
    lead = x ** (1.0 - 2.0 * sigma) / (1.0 - 2.0 * sigma)
    if sigma <= 0.0:
        return lead
    return real_zeta(2.0 * sigma).value + lead


def power_sum_check(x: float, sigma: float) -> BoundCheck:
    """Scaled residual of the partial power sum against its main terms.

    The residual is O(x^{-2 sigma}) away from sigma = 1/2 and O(1/x) there,
    so (partial - main) times the inverse of that envelope stays bounded.

    When the envelope undercuts binary64 resolution of the sum (large
    sigma * log x, e.g. sigma = 2 beyond x ~ 2000) the subtraction is pure
    roundoff in doubles, so the summation and main terms move to working
    precision sized to the headroom; the route stays direct summation.
    """
    res_scale = 1.0 / x if sigma == 0.5 else x ** (-2.0 * sigma)
    value_scale = max(1.0, abs(power_sum_asymptotic(x, sigma)))
    headroom = value_scale / res_scale
    if headroom <= 1.0e13:
        partial = power_sum_partial(x, sigma)
        asym = power_sum_asymptotic(x, sigma)
        resid = partial - asym
    else:
        resid = _power_sum_residual_mp(x, sigma, headroom)
    scaled = resid / res_scale
    return BoundCheck(abs(scaled), 1.0, abs(scaled),
                      {"x": x, "sigma": sigma, "residual": resid})


def _power_sum_residual_mp(x: float, sigma: float, headroom: float) -> float:
    """partial - main terms by direct summation in extended precision."""
    from mpmath.ctx_mp import MPContext

    if x > _POWER_SUM_BUDGET:
        raise BudgetExceededError(f"direct summation capped at x = {_POWER_SUM_BUDGET:g}")
    ctx = MPContext()
    ctx.dps = int(math.log10(headroom)) + 12
    N = int(math.floor(x + 1e-9))
    p = ctx.mpf(-2.0 * sigma)
    if abs(2.0 * sigma - round(2.0 * sigma)) < 1e-12:
        p = int(round(-2.0 * sigma))  # integer exponent: much cheaper powers
    total = ctx.mpf(0)
    for n in range(1, N + 1):
        total += ctx.mpf(n) ** p
    xm = ctx.mpf(x)
    if sigma == 0.5:
        asym = ctx.log(xm) + ctx.mpf(EULER_GAMMA_HIGH)
    else:
        asym = xm ** (1 - 2 * ctx.mpf(sigma)) / (1 - 2 * ctx.mpf(sigma))
        if sigma > 0.0:
            asym += ctx.zeta(2 * ctx.mpf(sigma))
    return float(total - asym)


def _double_sum(x: float, sigma: float, kind: str) -> float:
    N = int(math.floor(x + 1e-9))
    if N > _DOUBLE_SUM_BUDGET:
        raise BudgetExceededError(f"double sum capped at x = {_DOUBLE_SUM_BUDGET}")
    total = 0.0
    block = 256
    for n0 in range(2, N + 1, block):
        n1 = min(N, n0 + block - 1)
        n = np.arange(n0, n1 + 1, dtype=np.float64)[:, None]
        m = np.arange(1, n1, dtype=np.float64)[None, :]
        mask = m < n
        with np.errstate(divide="ignore", invalid="ignore"):
            L = np.log(n / m)
            if kind == QUOTIENT_KIND:
                terms = (n / m) ** sigma / L
            elif kind == PRODUCT_KIND:
                terms = (n * m) ** (-sigma) / L
            else:
                raise ValueError(f"unknown kind {kind!r}")
        total += float(np.sum(np.where(mask, terms, 0.0)))
    return total


def double_sum_growth(x: float, sigma: float, kind: str) -> BoundCheck:
    """Exact double sum over m < n <= x against its growth envelope.

    kind = "sigma_quotient" (requires sigma < 0): envelope x^2 log x.
    kind = "sigma_product": envelope x^{2-2s} log x for sigma < 1,
    log^2 x at sigma = 1, constant for sigma > 1.
    """
    if kind == QUOTIENT_KIND and sigma >= 0.0:
        raise ValueError("quotient-kind growth check requires sigma < 0")
    lhs = _double_sum(x, sigma, kind)
    lx = math.log(x)
    if kind == QUOTIENT_KIND:
        rhs = x * x * lx
    elif sigma < 1.0:
        rhs = x ** (2.0 - 2.0 * sigma) * lx
    elif sigma == 1.0:
        rhs = lx * lx
    else:
        rhs = 1.0
    return BoundCheck(lhs, rhs, lhs / rhs, {"x": x, "sigma": sigma, "kind": kind})


def random_osc_sweep(n_samples: int, seed: int) -> list[BoundCheck]:
    """Seeded randomized sweep of the oscillatory-integral bound."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n_samples):
        a = float(rng.uniform(0.1, 99.0))
        b = float(a + rng.uniform(0.01, 100.0 - a))
        alpha = float(rng.uniform(-3.0, 3.0))
        beta = float(rng.uniform(0.01, 50.0) * rng.choice([-1.0, 1.0]))
        out.append(osc_bound_check(a, b, alpha, beta))
    return out
