"""Brute-force oracles for the bound infrastructure behind the moment proofs.

The module owns the order-8 Gauss-Legendre rule and its error bound on a
Bernstein ellipse, which the moment stream shares.  Three families:

* oscillatory power integrals  int_a^b t^alpha cos(beta t) dt, by one pass
  over a mesh fixed by (a, b, beta) with a proven error bound, and the
  first-derivative bound  3/|beta| * max(a^alpha, b^alpha);
* partial power sums  sum_{n<=x} n^{-2 sigma}  against their three-case
  asymptotic main terms, with a proven roundoff bound on each residual;
* the two double sums over pairs m < n <= x weighted by 1/log(n/m), whose
  growth orders are checked as bounded ratios on doubling grids (the
  implied constants depend on sigma, so no fixed constant is asserted).
  One pass of 32-row blocks up to the largest x serves every case and
  every x: each pair costs one log1p((n-m)/m) and a reciprocal, shared by
  all cases, a block's row sums for all cases are one matrix product with
  the weights m^{-sigma} (BLAS threads never split its sum over m), and
  each x adds its prefix of the row sums exactly by math.fsum.  log1p
  keeps full relative accuracy next to the diagonal, where log(n/m) of
  the rounded quotient does not.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .aux_eval import TWO_PI_LONG
from .errors import BudgetExceededError
from .special_functions import EULER_GAMMA, EvalResult, real_zeta

_GLX8, _GLW8 = np.polynomial.legendre.leggauss(8)

_DOUBLE_SUM_BUDGET = 3000
_DOUBLE_SUM_ROWS = 32
_POWER_SUM_BUDGET = 2.0e7
_U = 2.0 ** -53  # unit roundoffs of binary64 and of the extended type
_U_LD = float(np.finfo(np.longdouble).eps) / 2.0

QUOTIENT_KIND = "sigma_quotient"   # n^sigma / m^sigma terms, sigma < 0
PRODUCT_KIND = "sigma_product"     # 1 / (n m)^sigma terms


@dataclass(frozen=True)
class BoundCheck:
    """Observed quantity against its claimed bound (or growth envelope)."""

    lhs: float
    rhs_bound: float
    ratio: float
    inputs: dict = field(default_factory=dict)


def _gl8_error(hw, rho, M):
    """Order-8 Gauss-Legendre error on a panel of half-width hw for an
    integrand bounded by M on its Bernstein ellipse E_rho, semi-axes
    hw (rho +- 1/rho)/2 (Trefethen, Approximation Theory and Approximation
    Practice, Thm 19.3)."""
    return hw * 64.0 * M * rho ** -16.0 / (15.0 * (rho * rho - 1.0))


def osc_integral(a: float, b: float, alpha: float, beta: float) -> EvalResult:
    """int_a^b t^alpha cos(beta t) dt, 0 < a < b, beta != 0, by one pass of
    order-8 Gauss-Legendre panels, with a proven absolute error bound.

    The panels tile [a, b] exactly in extended precision, where each
    panel's phase beta mid is also reduced mod 2pi.  With
    rho = min(36/(|beta| hw), mid/hw) >= 9 the ellipse stays in Re t > 0,
    and the integrand is at most (mid +- A)^alpha cosh(|beta| B) on it.
    Each term adds its roundoff, 4 (u_ld |beta| t + u (|alpha| + 8)) of its
    size: the argument errors of cos(beta t) and t^alpha, the products and
    the sums.
    """
    if not (0.0 < a < b) or beta == 0.0:
        raise ValueError(f"need 0 < a < b and beta != 0, got a={a}, b={b}, beta={beta}")

    # no panel wider than min(pi/|beta|, t/4) at its left end t: geometric
    # from a, ratio <= 5/4, up to c = 4pi/|beta|, then equal panels up to b
    c = min(b, max(a, 4.0 * math.pi / abs(beta)))
    n_geo = math.ceil(math.log(c / a) / math.log(1.25))
    n_eq = math.ceil((b - c) * abs(beta) / math.pi)
    edges = np.concatenate([a * (c / a) ** (np.arange(n_geo) / max(n_geo, 1)),
                            np.linspace(c, b, n_eq + 1)]).astype(np.longdouble)
    mid_ld = 0.5 * (edges[:-1] + edges[1:])
    mid, hw = mid_ld.astype(np.float64), (0.5 * np.diff(edges)).astype(np.float64)
    t = mid[:, None] + hw[:, None] * _GLX8
    power = t ** alpha
    phase = (np.mod(beta * mid_ld, TWO_PI_LONG).astype(np.float64)[:, None]
             + (beta * hw)[:, None] * _GLX8)
    value = math.fsum(((power * np.cos(phase)) @ _GLW8 * hw).tolist())

    rho = np.minimum(36.0 / (abs(beta) * hw), mid / hw)
    A, B = 0.5 * hw * (rho + 1.0 / rho), 0.5 * hw * (rho - 1.0 / rho)
    M = (mid + math.copysign(1.0, alpha) * A) ** alpha * np.cosh(abs(beta) * B)
    roundoff = 4.0 * float(
        (np.abs(power) * (_U_LD * abs(beta) * t + _U * (abs(alpha) + 8.0))) @ _GLW8 @ hw)
    bound = float(np.sum(_gl8_error(hw, rho, M))) + roundoff
    return EvalResult(value, bound, t.size)


def osc_bound_check(a: float, b: float, alpha: float, beta: float) -> BoundCheck:
    """Checks |int_a^b t^alpha cos(beta t) dt| <= 3/|beta| max(a^alpha, b^alpha)."""
    integral = osc_integral(a, b, alpha, beta)
    lhs = abs(integral.value)
    rhs = 3.0 / abs(beta) * max(a**alpha, b**alpha)
    return BoundCheck(lhs, rhs, lhs / rhs,
                      {"a": a, "b": b, "alpha": alpha, "beta": beta,
                       "error_bound": integral.abs_error_bound})


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


def power_sum_asymptotic(x: float, sigma: float) -> EvalResult:
    """Main terms of the partial power sum, by case:

    sigma <= 0:            x^{1-2s}/(1-2s)
    0 < sigma, sigma != 1/2: zeta(2s) + x^{1-2s}/(1-2s)
    sigma = 1/2:           log x + gamma

    with a bound on their roundoff: log and pow within an ulp (the rounded
    exponent 1-2s moves x^{1-2s} by u |1-2s| log x more), a rounding each
    for the constant, the division and the sum, and zeta's own bound.
    """
    if sigma == 0.5:
        lead, const = math.log(x), EvalResult(EULER_GAMMA, _U * EULER_GAMMA, 0)
    else:
        lead = x ** (1.0 - 2.0 * sigma) / (1.0 - 2.0 * sigma)
        const = real_zeta(2.0 * sigma) if sigma > 0.0 else EvalResult(0.0, 0.0, 0)
    value = const.value + lead
    lead_ulps = abs(1.0 - 2.0 * sigma) * abs(math.log(x)) + 6.0
    return EvalResult(value, const.abs_error_bound
                      + _U * (lead_ulps * abs(lead) + abs(value)), const.terms_used)


def power_sum_check(x: float, sigma: float) -> BoundCheck:
    """Scaled residual of the partial power sum against its main terms,
    with a proven bound on its roundoff in inputs["error_bound"].

    The residual is O(x^{-2 sigma}) away from sigma = 1/2 and O(1/x) there,
    so (partial - main) times the inverse of that envelope stays bounded.

    In binary64 each term n^{-2 sigma} is within 4 ulp and passes through
    at most bit_length(N) + 30 additions (numpy's pairwise sum, then at
    most five 4e6-term chunks).  When the envelope undercuts binary64
    resolution of the sum (large sigma * log x, e.g. sigma = 2 beyond
    x ~ 2000) the subtraction is pure roundoff in doubles, so the check
    moves to working precision sized to the headroom: an exact fixed-point
    integer sum when 2 sigma is a positive integer, one correctly rounded
    sum of mp terms otherwise, and main terms in mp.  The route stays
    direct summation either way.
    """
    res_scale = 1.0 / x if sigma == 0.5 else x ** (-2.0 * sigma)
    main = power_sum_asymptotic(x, sigma)
    headroom = max(1.0, abs(main.value)) / res_scale
    if headroom <= 1.0e13:
        partial = power_sum_partial(x, sigma)
        resid = partial - main.value
        ulps = int(math.floor(x + 1e-9)).bit_length() + 38
        error = _U * (ulps * partial + abs(resid)) + main.abs_error_bound
    else:
        resid, error = _power_sum_residual_mp(x, sigma, headroom)
    scaled = resid / res_scale
    return BoundCheck(abs(scaled), 1.0, abs(scaled),
                      {"x": x, "sigma": sigma, "residual": resid,
                       "error_bound": error / res_scale})


def _power_sum_residual_mp(x: float, sigma: float, headroom: float) -> tuple[float, float]:
    """partial - main terms by direct summation in extended precision, and
    a bound on its error.

    Working precision is ctx.prec bits, with dps = log10(headroom) + 12.
    When e = 2 sigma is a positive integer the partial sum is the exact
    integer sum of floor(2^bits / n^e), bits = ctx.prec + N.bit_length() + 8,
    rounded to ctx.prec once: the N floors lose at most N 2^-bits <=
    2^-(ctx.prec + 8) in all, a proven bound.  Other exponents take one mp
    power per term, summed exactly and rounded once by ctx.fsum (exact
    while the terms span under 2 ctx.prec bits; the smallest, x^{-2 sigma},
    is about 1/headroom).  The error bound allows 8 units of 2^-ctx.prec on
    the sum and on the main terms, which covers the floors (the sum is at
    least 1), plus the final rounding to binary64.
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
    asym = ctx.mpf(x) ** (1 - 2 * ctx.mpf(sigma)) / (1 - 2 * ctx.mpf(sigma))
    if sigma > 0.0:
        asym += ctx.zeta(2 * ctx.mpf(sigma))
    resid = float(total - asym)
    return resid, 8.0 * 2.0 ** -ctx.prec * float(abs(total) + abs(asym)) + _U * abs(resid)


def double_sum_table(xs, cases) -> list[list[BoundCheck]]:
    """Exact double sums over m < n <= x against their growth envelopes,
    table[i][j] for case i = (kind, sigma) at x = xs[j].  Every input is
    checked before one pass of row blocks runs up to max(xs): a block's
    R[n, m] = 1/log1p((n-m)/m), zero for m >= n, is formed once, and its
    row sums for all cases are a_n (R @ B), B the N x cases matrix of b_m.
    """
    if min(xs) < 2.0:
        raise ValueError("double sums need x >= 2")
    Ns = [int(math.floor(x + 1e-9)) for x in xs]
    N = max(Ns)
    for kind, sigma in cases:
        if kind not in (QUOTIENT_KIND, PRODUCT_KIND):
            raise ValueError(f"unknown kind {kind!r}")
        if kind == QUOTIENT_KIND and sigma >= 0.0:
            raise ValueError("quotient-kind growth check requires sigma < 0")
        if kind == QUOTIENT_KIND and -sigma * math.log(N) > 708.0:
            # the weights n^sigma and m^-sigma must stay normal binary64 numbers
            raise ValueError(f"quotient-kind weights leave binary64 at sigma={sigma}, x={max(xs)}")
    if N > _DOUBLE_SUM_BUDGET:
        raise BudgetExceededError(f"double sum capped at x = {_DOUBLE_SUM_BUDGET}")
    k = np.arange(1, N + 1, dtype=np.float64)
    B = np.stack([k ** -sigma for _, sigma in cases], axis=1)
    A = np.stack([k ** sigma if kind == QUOTIENT_KIND else B[:, i]
                  for i, (kind, sigma) in enumerate(cases)], axis=1)
    rows = np.empty((N - 1, len(cases)))
    for n0 in range(2, N + 1, _DOUBLE_SUM_ROWS):
        n1 = min(N, n0 + _DOUBLE_SUM_ROWS - 1)
        m = k[:n1 - 1]
        R = k[n0 - 1:n1, None] - m
        below = R > 0.0
        R /= m
        np.log1p(R, out=R)
        np.divide(1.0, R, out=R, where=below)
        R[~below] = 0.0
        rows[n0 - 2:n1 - 1] = A[n0 - 1:n1] * (R @ B[:n1 - 1])
    return [[_growth_check(math.fsum(rows[:n - 1, i].tolist()), x, sigma, kind)
             for x, n in zip(xs, Ns)] for i, (kind, sigma) in enumerate(cases)]


def _growth_check(lhs: float, x: float, sigma: float, kind: str) -> BoundCheck:
    """lhs against its envelope: x^2 log x for the quotient kind (sigma < 0),
    a_n b_m = n^sigma m^-sigma; for the product kind, a_n b_m = (n m)^-sigma,
    x^{2-2s} log x for sigma < 1, log^2 x at sigma = 1, constant above."""
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


def double_sum_growth(x: float, sigma: float, kind: str) -> BoundCheck:
    """One case of `double_sum_table` at one x."""
    return double_sum_table([x], [(kind, sigma)])[0][0]


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
