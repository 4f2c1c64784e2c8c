"""Special functions: zeta, log-gamma, Gamma, Riemann-Siegel theta.

zeta is a binary64 Euler-Maclaurin sum for Re s >= -1/2 with explicit error
accounting; log-gamma, Gamma and theta are mpmath's at 30 digits, rounded
once.  Each public entry point returns an :class:`EvalResult` with a
concrete absolute error bound, and raises RangeExceededError outside its
range; none applies a reflection formula.  These routines are oracles for
the contour evaluator and the mean-value engine, so they share no code
with either.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from mpmath.ctx_mp import MPContext

from .errors import PoleProximityError, QuadratureConvergenceError, RangeExceededError

# Euler's constant, full binary64 precision (stored, not computed).
EULER_GAMMA = 0.5772156649015329

# 2pi for phase reductions; the binary64 value is 2.45e-16 short a turn
TWO_PI_LONG = np.longdouble("6.283185307179586476925286766559")

# Bernoulli numbers B_2, B_4, ..., B_26 as exact fractions evaluated in binary64.
_BERNOULLI_2K = (
    1.0 / 6.0,
    -1.0 / 30.0,
    1.0 / 42.0,
    -1.0 / 30.0,
    5.0 / 66.0,
    -691.0 / 2730.0,
    7.0 / 6.0,
    -3617.0 / 510.0,
    43867.0 / 798.0,
    -174611.0 / 330.0,
    854513.0 / 138.0,
    -236364091.0 / 2730.0,
    8553103.0 / 6.0,
)

_EM_CORRECTION_TERMS = 12
_IM_RANGE_LIMIT = 1.0e5
# nominal guard radius 1e-6, with representation slack so that s = 1 + 1e-6
# itself (whose float gap to 1 is fractionally below 1e-6) stays evaluable
_POLE_RADIUS = 1.0e-6 * (1.0 - 1.0e-6)

# log-gamma, Gamma and theta: mpmath at 30 digits, rounded once to binary64
# (_rounded), which moves a value by at most u |value|.  The 30-digit values
# are within 1.2e-31 (1 + |value|) of 60-digit mpmath on Re z in [1e-8, 170],
# |Im z| <= 1e5; _MP_MARGIN allows a thousand times that.
_U = 2.0 ** -53
_MP_MARGIN = 1.0e-28


@dataclass(frozen=True)
class EvalResult:
    """A computed value together with a finite absolute error bound."""

    value: complex | float
    abs_error_bound: float
    terms_used: int

    def __post_init__(self):
        if not (self.abs_error_bound >= 0.0 and math.isfinite(self.abs_error_bound)):
            raise ValueError("abs_error_bound must be finite and nonnegative")


def _powers_neg_s(n: np.ndarray, s: complex) -> np.ndarray:
    """n**(-s) elementwise, with the oscillatory phase computed in extended
    precision so the argument t*log(n) keeps ~1e-13 rad accuracy even for
    t near 1e5."""
    log_n = np.log(n.astype(np.longdouble))
    phase = np.mod(-s.imag * log_n, TWO_PI_LONG).astype(np.float64)
    amp = np.exp(-s.real * np.log(n))
    return amp * (np.cos(phase) + 1j * np.sin(phase))


def _euler_maclaurin_zeta(s: complex, n_terms: int) -> tuple[complex, float, int]:
    """Euler-Maclaurin evaluation of zeta(s) with `n_terms` direct terms and
    a fixed stack of correction terms.  Returns (value, error_bound, terms).

    The error bound combines the standard truncation bound for the first
    omitted correction term with a roundoff estimate for the direct sum.
    """
    N = max(2, int(n_terms))
    K = _EM_CORRECTION_TERMS
    n = np.arange(1, N, dtype=np.float64)
    direct = complex(np.sum(_powers_neg_s(n, s)))

    # Boundary terms: N^{1-s}/(s-1) + N^{-s}/2.
    logN = math.log(N)
    N_neg_s = complex(np.exp(-s.real * logN) * np.exp(-1j * (s.imag * logN)))
    tail = N_neg_s * N / (s - 1.0) + 0.5 * N_neg_s

    # Correction stack: sum_k B_{2k}/(2k)! * prod_{j=0}^{2k-2}(s+j) * N^{1-s-2k}.
    rising = s  # prod_{j=0}^{0}
    fact = 2.0  # (2k)! running value, starts at 2! for k=1
    scale = N_neg_s / N  # N^{1-s-2k} at k=1, updated by /N^2 each k
    corr = 0.0 + 0.0j
    for k in range(1, K + 1):
        if k > 1:
            rising = rising * (s + (2 * k - 3)) * (s + (2 * k - 2))
            fact *= (2 * k) * (2 * k - 1)
        corr += _BERNOULLI_2K[k - 1] / fact * rising * scale
        scale /= N * N
    value = direct + tail + corr

    # First omitted term bounds the truncation error (valid for
    # Re s > -(2K+1)); factor |s+2K+1|/(sigma+2K+1) per the standard bound.
    sigma = s.real
    rising_full = rising * (s + (2 * K - 1)) * (s + (2 * K))
    fact_next = fact * (2 * K + 1) * (2 * K + 2)
    omitted = abs(_BERNOULLI_2K[K] / fact_next * rising_full) * N ** (-sigma - 2 * K - 1)
    trunc = omitted * abs(s + 2 * K + 1) / (sigma + 2 * K + 1)

    eps = 2.2204460492503131e-16
    mag_sum = float(np.sum(np.exp(-sigma * np.log(n)))) if len(n) else 0.0
    roundoff = eps * (4.0 * (mag_sum + abs(tail) + abs(corr)))
    # Extended-precision phases leave ~1e-19 * t * log(n) per-term phase error.
    phase_err = 1.1e-19 * abs(s.imag) * (mag_sum * logN + 1.0)
    return value, trunc + roundoff + phase_err, N + K


def complex_zeta(s: complex) -> EvalResult:
    """Riemann zeta by Euler-Maclaurin summation, for Re s >= -1/2 and
    |Im s| <= 1e5; RangeExceededError outside that range.

    Terms are doubled until a doubling moves the value by at most the sum of
    both bounds (or 1e-12), else QuadratureConvergenceError after four.
    """
    s = complex(s)
    if abs(s - 1.0) < _POLE_RADIUS:
        raise PoleProximityError(f"s = {s} within {_POLE_RADIUS} of the pole at 1")
    if abs(s.imag) > _IM_RANGE_LIMIT:
        raise RangeExceededError(f"|Im s| = {abs(s.imag)} exceeds {_IM_RANGE_LIMIT}")
    if s.real < -0.5:
        raise RangeExceededError(f"complex_zeta requires Re s >= -1/2, got {s}")

    N = max(20, int(math.ceil(2.0 * abs(s.imag))))
    v1, b1 = _euler_maclaurin_zeta(s, N)[:2]
    for _ in range(4):
        v2, b2, terms2 = _euler_maclaurin_zeta(s, 2 * N)
        moved = abs(v2 - v1)
        if moved <= max(b1 + b2, 1.0e-12):
            bound = max(b2, moved, 1e-16 * abs(v2))
            return EvalResult(v2, bound, terms2)
        N *= 2
        v1, b1 = v2, b2
    raise QuadratureConvergenceError(f"zeta({s}) still moves {moved:.1e} after four doublings")


def real_zeta(s: float) -> EvalResult:
    """zeta(s) for real s >= -1/2, s != 1: the real part of complex_zeta,
    with its bound, pole guard and range guard."""
    r = complex_zeta(complex(float(s), 0.0))
    return EvalResult(r.value.real, r.abs_error_bound, r.terms_used)


def _mp_context() -> MPContext:
    """A fresh 30-digit context: mpmath raises ctx.prec inside its own
    functions, so one context shared between threads would race."""
    ctx = MPContext()
    ctx.dps = 30
    return ctx


def _rounded(value: complex | float) -> EvalResult:
    return EvalResult(value, _U * abs(value) + _MP_MARGIN * (1.0 + abs(value)), 0)


def log_gamma(z: complex) -> EvalResult:
    """log Gamma(z) for Re z > 0, continuous from the positive real axis
    (mpmath's loggamma), within u |value| + 1e-28 (1 + |value|)."""
    z = complex(z)
    if z.real <= 0.0:
        raise RangeExceededError(f"log_gamma requires Re z > 0, got {z}")
    return _rounded(complex(_mp_context().loggamma(z)))


def gamma_real(x: float) -> EvalResult:
    """Gamma for real x > 0 within u |value| + 1e-28 (1 + |value|).
    PoleProximityError at the poles 0, -1, -2, ...; RangeExceededError at
    any other x <= 0; OverflowError where Gamma leaves binary64 (x > 171.6)."""
    x = float(x)
    if x <= 0.0 and abs(x - round(x)) < 1e-12:
        raise PoleProximityError(f"Gamma pole at x = {x}")
    if not x > 0.0:
        raise RangeExceededError(f"gamma_real requires x > 0, got {x}")
    value = float(_mp_context().gamma(x))
    if math.isinf(value):
        raise OverflowError(f"Gamma({x}) exceeds binary64")
    return _rounded(value)


def riemann_siegel_theta(t: float) -> EvalResult:
    """theta(t) = Im log Gamma(1/4 + i t/2) - (t/2) log pi for |t| <= 1e5,
    within u |value| + 1e-28 (1 + |value|): odd in t, and the phase that
    turns the critical line into the real-valued Hardy function."""
    t = float(t)
    if abs(t) > _IM_RANGE_LIMIT:
        raise RangeExceededError(f"|t| = {abs(t)} exceeds {_IM_RANGE_LIMIT}")
    return _rounded(float(_mp_context().siegeltheta(t)))
