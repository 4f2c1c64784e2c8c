"""Self-contained special functions: zeta, log-gamma, Riemann-Siegel theta.

Everything here is binary64 with explicit error accounting.  The zeta
evaluators use Euler-Maclaurin summation (with reflection for negative
real part), log-gamma uses a shifted Stirling series, and each public
entry point returns an :class:`EvalResult` carrying a concrete absolute
error bound alongside the value.

These routines serve as independent oracles for the contour evaluator
and the mean-value engine, so they deliberately share no code with
either.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import PoleProximityError, RangeExceededError

# Euler's constant, full binary64 precision (stored, not computed).
EULER_GAMMA = 0.5772156649015329

HALF_LOG_TWO_PI = 0.9189385332046727

# Bernoulli numbers B_2, B_4, ..., B_28 as exact fractions evaluated in binary64.
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
    -23749461029.0 / 870.0,
)

# Stirling series coefficients B_{2k} / ((2k-1) 2k) for log-gamma.
_STIRLING_COEFFS = (
    1.0 / 12.0,
    -1.0 / 360.0,
    1.0 / 1260.0,
    -1.0 / 1680.0,
    1.0 / 1188.0,
    -691.0 / 360360.0,
    1.0 / 156.0,
    -3617.0 / 122400.0,
    43867.0 / 244188.0,
    -174611.0 / 125400.0,
)

_EM_CORRECTION_TERMS = 12
_IM_RANGE_LIMIT = 1.0e5
# nominal guard radius 1e-6, with representation slack so that s = 1 + 1e-6
# itself (whose float gap to 1 is fractionally below 1e-6) stays evaluable
_POLE_RADIUS = 1.0e-6 * (1.0 - 1.0e-6)


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
    phase = np.mod(-s.imag * log_n, 2.0 * np.pi).astype(np.float64)
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
    if sigma + 2 * K + 1 <= 0:
        raise RangeExceededError(f"Re s = {sigma} below Euler-Maclaurin validity")
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


def complex_zeta(s: complex, tol: float = 1.0e-12) -> EvalResult:
    """Riemann zeta on the complex plane by Euler-Maclaurin summation.

    Independent oracle with documented range |Im s| <= 1e5.  For
    Re s < -1/2 the functional equation is applied (in log space, so the
    chi factor neither overflows nor loses accuracy at large |Im s|).
    Doubling the term count must move the value by less than the reported
    bound; if not, the count is doubled until it does.
    """
    s = complex(s)
    if abs(s - 1.0) < _POLE_RADIUS:
        raise PoleProximityError(f"s = {s} within {_POLE_RADIUS} of the pole at 1")
    if abs(s.imag) > _IM_RANGE_LIMIT:
        raise RangeExceededError(f"|Im s| = {abs(s.imag)} exceeds {_IM_RANGE_LIMIT}")

    if s.real < -0.5:
        refl = _reflection_factor(s)
        inner = complex_zeta(1.0 - s, tol=tol)
        value = refl * inner.value
        bound = abs(refl) * inner.abs_error_bound + 1e-14 * abs(value)
        return EvalResult(value, bound, inner.terms_used)

    N = max(20, int(math.ceil(2.0 * abs(s.imag))))
    v1, b1, terms1 = _euler_maclaurin_zeta(s, N)
    for _ in range(4):
        v2, b2, terms2 = _euler_maclaurin_zeta(s, 2 * N)
        moved = abs(v2 - v1)
        if moved <= max(b1, tol):
            bound = max(b2, moved, 1e-16 * abs(v2))
            return EvalResult(v2, bound, terms2)
        N *= 2
        v1, b1, terms1 = v2, b2, terms2
    return EvalResult(v1, b1, terms1)


def _log_sin_half_pi_s(s: complex) -> complex:
    """log sin(pi s / 2), stable for large |Im s| (any 2*pi*i*k branch)."""
    z = 0.5 * math.pi * s
    if abs(z.imag) < 20.0:
        return cmath.log(cmath.sin(z))
    log_2i = math.log(2.0) + 0.5j * math.pi
    if z.imag > 0:
        return -1j * z - log_2i + cmath.log(1.0 - cmath.exp(2j * z))
    return 1j * z - log_2i + cmath.log(1.0 - cmath.exp(-2j * z))


def _reflection_factor(s: complex) -> complex:
    """chi(s) = 2^s pi^{s-1} sin(pi s/2) Gamma(1-s), computed in log space."""
    log_chi = (
        s * math.log(2.0)
        + (s - 1.0) * math.log(math.pi)
        + _log_sin_half_pi_s(s)
        + log_gamma(1.0 - s).value
    )
    return cmath.exp(log_chi)


def real_zeta(s: float, tol: float = 1.0e-12) -> EvalResult:
    """zeta(s) for real s != 1, valid on the whole real line.

    Nonnegative s goes straight to Euler-Maclaurin; negative s uses the
    functional equation through log-gamma, which keeps the evaluation
    accurate where the direct sum would cancel catastrophically.
    """
    s = float(s)
    if abs(s - 1.0) < _POLE_RADIUS:
        raise PoleProximityError(f"s = {s} within {_POLE_RADIUS} of the pole at 1")
    if s >= 0.0:
        r = complex_zeta(complex(s, 0.0), tol=tol)
        return EvalResult(r.value.real, r.abs_error_bound, r.terms_used)
    chi = (
        2.0**s
        * math.pi ** (s - 1.0)
        * math.sin(0.5 * math.pi * s)
        * gamma_real(1.0 - s).value
    )
    inner = real_zeta(1.0 - s, tol=tol)
    value = chi * inner.value
    bound = abs(chi) * inner.abs_error_bound + 1e-14 * (abs(value) + abs(chi))
    return EvalResult(value, bound, inner.terms_used)


def _stirling_log_gamma(z: complex) -> complex:
    """Asymptotic Stirling series; caller guarantees |z| is large enough."""
    lz = cmath.log(z)
    out = (z - 0.5) * lz - z + HALF_LOG_TWO_PI
    zinv2 = 1.0 / (z * z)
    term = 1.0 / z
    for c in _STIRLING_COEFFS:
        out += c * term
        term *= zinv2
    return out


def log_gamma(z: complex) -> EvalResult:
    """Principal log Gamma for Re z > 0, relative error <= 1e-12.

    Small arguments are shifted up by the recurrence before applying the
    Stirling series, so the series always runs where it has converged far
    below the target accuracy.
    """
    z = complex(z)
    if z.real <= 0.0:
        raise RangeExceededError(f"log_gamma requires Re z > 0, got {z}")
    shift = 0
    zs = z
    while abs(zs) < 9.5:
        zs += 1.0
        shift += 1
    out = _stirling_log_gamma(zs)
    if shift:
        acc = 0.0 + 0.0j
        for k in range(shift):
            acc += cmath.log(z + k)
        out -= acc
    bound = 1e-13 * (1.0 + abs(out)) + 1e-15 * shift
    return EvalResult(out, bound, len(_STIRLING_COEFFS) + shift)


def gamma_real(x: float) -> EvalResult:
    """Gamma on the real line away from the poles at 0, -1, -2, ...

    Negative non-integer arguments go through the reflection formula.
    """
    x = float(x)
    if x <= 0.0 and abs(x - round(x)) < 1e-12:
        raise PoleProximityError(f"Gamma pole at x = {x}")
    if x > 0.0:
        lg = log_gamma(x)
        value = math.exp(lg.value.real)
        return EvalResult(value, abs(value) * (lg.abs_error_bound + 1e-14), lg.terms_used)
    inner = gamma_real(1.0 - x)
    value = math.pi / (math.sin(math.pi * x) * inner.value)
    rel = inner.abs_error_bound / abs(inner.value) + 1e-13
    return EvalResult(value, abs(value) * rel, inner.terms_used)


def riemann_siegel_theta(t: float) -> EvalResult:
    """theta(t) = Im log Gamma(1/4 + i t/2) - (t/2) log pi.

    Odd in t, entire on the real line; the phase that turns the critical
    line into the real-valued Hardy function.
    """
    t = float(t)
    if t == 0.0:
        return EvalResult(0.0, 0.0, 0)
    if abs(t) > _IM_RANGE_LIMIT:
        raise RangeExceededError(f"|t| = {abs(t)} exceeds {_IM_RANGE_LIMIT}")
    lg = log_gamma(complex(0.25, 0.5 * t))
    value = lg.value.imag - 0.5 * t * math.log(math.pi)
    bound = lg.abs_error_bound + 1e-16 * abs(t) * math.log(max(abs(t), 2.0))
    return EvalResult(value, bound, lg.terms_used)
