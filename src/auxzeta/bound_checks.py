"""Brute-force oracles for the bound infrastructure behind the moment proofs.

Three families:

* oscillatory power integrals  int_a^b t^alpha cos(beta t) dt  and the
  first-derivative bound  3/|beta| * max(a^alpha, b^alpha);
* partial power sums  sum_{n<=x} n^{-2 sigma}  against their three-case
  asymptotic main terms;
* the two double sums over pairs m < n <= x weighted by 1/log(n/m), whose
  growth orders are checked as bounded ratios on doubling grids (the
  implied constants depend on sigma, so no fixed constant is asserted).
  They are summed over every pair, 32 rows n at a time: each pair costs
  one log1p((n-m)/m) and a reciprocal, the weights n^{+-sigma} and
  m^{-sigma} are vectors formed once per call, a block's row sums are one
  matrix-vector product, and the N-1 row sums are added exactly by
  math.fsum.  log1p keeps full relative accuracy next to the diagonal,
  where log(n/m) of the rounded quotient does not.
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
_DOUBLE_SUM_ROWS = 32
_POWER_SUM_BUDGET = 2.0e7
# osc_integral's roundoff, 4 eps times the finer pass's sum of |terms|: two
# passes differ by up to 2.6 eps of it (sigma = 2 cross term, T = 2pi*1000)
_OSC_ROUNDOFF = 4.0 * 2.0 ** -52

QUOTIENT_KIND = "sigma_quotient"   # n^sigma / m^sigma terms, sigma < 0
PRODUCT_KIND = "sigma_product"     # 1 / (n m)^sigma terms


@dataclass(frozen=True)
class BoundCheck:
    """Observed quantity against its claimed bound (or growth envelope)."""

    lhs: float
    rhs_bound: float
    ratio: float
    inputs: dict = field(default_factory=dict)


def _osc_panels(a: float, b: float, alpha: float, beta: float,
                n_panels: int) -> tuple[float, np.ndarray, np.ndarray]:
    """Gauss-Legendre sum of t^alpha cos(beta t) on n_panels equal panels
    of [a, b], its weighted terms (a row a panel) and the half-widths."""
    edges = np.linspace(a, b, n_panels + 1)
    mid = 0.5 * (edges[:-1] + edges[1:])
    hw = 0.5 * (edges[1:] - edges[:-1])
    t = (mid[:, None] + hw[:, None] * _GLX8[None, :]).ravel()
    terms = (t**alpha * np.cos(beta * t)).reshape(n_panels, -1) * _GLW8[None, :]
    return float(np.sum(terms.sum(axis=1) * hw)), terms, hw


def osc_integral(a: float, b: float, alpha: float, beta: float) -> float:
    """int_a^b t^alpha cos(beta t) dt by composite Gauss-Legendre panels,
    doubled until two passes agree to 1e-10*(1+|value|) or to roundoff.

    Requires 0 < a < b and beta != 0; the power factor is evaluated away
    from 0 so any real alpha is fine.
    """
    if not (0.0 < a < b):
        raise ValueError(f"need 0 < a < b, got a={a}, b={b}")
    if beta == 0.0:
        raise ValueError("beta must be nonzero")

    period = TWO_PI / abs(beta)
    n_panels = max(8, int(math.ceil(6.0 * (b - a) / period)))
    v1 = _osc_panels(a, b, alpha, beta, n_panels)[0]
    for _ in range(12):
        n_panels *= 2
        v2, terms, hw = _osc_panels(a, b, alpha, beta, n_panels)
        moved = abs(v2 - v1)
        if (moved <= 1.0e-10 * (1.0 + abs(v2))
                or moved <= _OSC_ROUNDOFF * float(np.sum(np.abs(terms).sum(axis=1) * hw))):
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
    roundoff in doubles, so the check moves to working precision sized to
    the headroom: an exact fixed-point integer sum when 2 sigma is a
    positive integer, one correctly rounded sum of mp terms otherwise, and
    main terms in mp.  The route stays direct summation either way.
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
    """partial - main terms by direct summation in extended precision.

    Working precision is ctx.prec bits, with dps = log10(headroom) + 12.
    When e = 2 sigma is a positive integer the partial sum is the exact
    integer sum of floor(2^bits / n^e), bits = ctx.prec + N.bit_length() + 8,
    rounded to ctx.prec once: the N floors lose at most N 2^-bits <=
    2^-(ctx.prec + 8) in all, a proven bound.  Other exponents take one mp
    power per term, summed exactly and rounded once by ctx.fsum (exact
    while the terms span under 2 ctx.prec bits; the smallest, x^{-2 sigma},
    is about 1/headroom).
    """
    from mpmath.ctx_mp import MPContext

    if x > _POWER_SUM_BUDGET:
        raise BudgetExceededError(f"direct summation capped at x = {_POWER_SUM_BUDGET:g}")
    ctx = MPContext()
    ctx.dps = int(math.log10(headroom)) + 12
    N = int(math.floor(x + 1e-9))
    e = round(2.0 * sigma)
    if e >= 1 and abs(2.0 * sigma - e) < 1e-12:
        bits = ctx.prec + N.bit_length() + 8
        one = 1 << bits
        total = ctx.ldexp(ctx.mpf(sum(one // n**e for n in range(1, N + 1))), -bits)
    else:
        p = ctx.mpf(-2.0 * sigma)
        total = ctx.fsum(ctx.mpf(n) ** p for n in range(1, N + 1))
    xm = ctx.mpf(x)
    if sigma == 0.5:
        asym = ctx.log(xm) + ctx.mpf(EULER_GAMMA_HIGH)
    else:
        asym = xm ** (1 - 2 * ctx.mpf(sigma)) / (1 - 2 * ctx.mpf(sigma))
        if sigma > 0.0:
            asym += ctx.zeta(2 * ctx.mpf(sigma))
    return float(total - asym)


def _double_sum(x: float, sigma: float, kind: str) -> float:
    """sum_{m<n<=x} a_n b_m / log(n/m), where a_n b_m is n^sigma m^-sigma
    (quotient kind) or (n m)^-sigma (product kind).  A block's
    R[n, m] = 1/log1p((n-m)/m) is zero for m >= n, and its row sums are
    a_n (R @ b)."""
    if kind not in (QUOTIENT_KIND, PRODUCT_KIND):
        raise ValueError(f"unknown kind {kind!r}")
    N = int(math.floor(x + 1e-9))
    if N > _DOUBLE_SUM_BUDGET:
        raise BudgetExceededError(f"double sum capped at x = {_DOUBLE_SUM_BUDGET}")
    if kind == QUOTIENT_KIND and -sigma * math.log(N) > 708.0:
        # the weights n^sigma and m^-sigma must stay normal binary64 numbers
        raise ValueError(f"quotient-kind weights leave binary64 at sigma={sigma}, x={x}")
    k = np.arange(1, N + 1, dtype=np.float64)
    b = k ** -sigma
    a = k ** sigma if kind == QUOTIENT_KIND else b
    rows = np.empty(N - 1)
    for n0 in range(2, N + 1, _DOUBLE_SUM_ROWS):
        n1 = min(N, n0 + _DOUBLE_SUM_ROWS - 1)
        m = k[:n1 - 1]
        R = k[n0 - 1:n1, None] - m
        below = R > 0.0
        R /= m
        np.log1p(R, out=R)
        np.divide(1.0, R, out=R, where=below)
        R[~below] = 0.0
        rows[n0 - 2:n1 - 1] = a[n0 - 1:n1] * (R @ b[:n1 - 1])
    return math.fsum(rows)


def double_sum_growth(x: float, sigma: float, kind: str) -> BoundCheck:
    """Exact double sum over m < n <= x against its growth envelope.

    kind = "sigma_quotient" (requires sigma < 0): envelope x^2 log x.
    kind = "sigma_product": envelope x^{2-2s} log x for sigma < 1,
    log^2 x at sigma = 1, constant for sigma > 1.
    """
    if kind == QUOTIENT_KIND and sigma >= 0.0:
        raise ValueError("quotient-kind growth check requires sigma < 0")
    if x < 2.0:
        raise ValueError("double sums need x >= 2")
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
