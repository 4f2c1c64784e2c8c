"""Evaluation of Riemann's auxiliary function R(s) for Im s > 0.

R(s) is the line integral

    R(s) = int  x^{-s} e^{i pi x^2} / (e^{i pi x} - e^{-i pi x}) dx

along a line of slope 1 that crosses the real axis between two poles of
the integrand, traversed downward, from the upper right to the lower left.
The line is fixed by its crossing.  With the crossing in (0,1) this is the
defining integral.  Moving the crossing past the poles 1..M adds their
residues, exactly n^{-s} each, which gives three routes:

* ``main_sum`` -- the truncated Dirichlet sum over n <= sqrt(t/2pi), which
  approximates R(sigma+it) with remainder O(t^{-sigma/2});
* the shifted contour (production) -- ``eval_aux_direct(s, N + 1/2)``
  with N the main sum's term count: the residues give the main sum and the
  line, which now runs through the saddle of x^{-s} e^{i pi x^2}, adds the
  remainder with no cancellation, so binary64 suffices (the Riemann-Siegel
  move);
* the unshifted contour (oracle) -- ``eval_aux_direct(s)``, crossing at
  1/2.  It passes no pole, so it takes nothing from the main sum, but it is
  badly conditioned: the integrand reaches magnitude
  exp(max_u [t arg x(u) - pi Im x(u)^2 - pi |Im x(u)|]) while the result
  stays O(t^{1/4}), so above t ~ 35 it runs in mpmath at a working
  precision sized to that cancellation.

Both contours use composite Gauss-Legendre quadrature.  Panel widths
shrink inversely with the local derivative of the full complex exponent
and the Gauss order grows with the required digits, which keeps the node
count near two per radian of exponent variation instead of exploding.

``eval_aux`` is the one production evaluator: the shifted contour up to
``T_SWITCH``, the truncated sum above (the contour is capped at
t = 1000).  The ``AuxEval`` it returns -- value, method tag,
error bound, work done -- is the record that the CLI writes to its cache
and to the ``eval.csv`` row.  The contour's error bound is the observed
change under one halving of the panel widths, refined until it is within
``QUAD_REL`` (absolute plus relative), and never below the roundoff that
the cancellation along the line amplifies.  ``critical_line_decomposition``
exposes 2 e^{i theta(t)} R(1/2+it), whose real part is the classical Hardy
function.
"""

from __future__ import annotations

import cmath
import math
import threading
from dataclasses import dataclass

import numpy as np
from mpmath.ctx_mp import MPContext

from .errors import ContourError, QuadratureConvergenceError, RangeExceededError
from .special_functions import riemann_siegel_theta

TWO_PI = 2.0 * math.pi

MAIN_SUM_METHOD = "MainSum"
DIRECT_CONTOUR_METHOD = "DirectContour"

# Empirical ceiling for |R(sigma+it) - main_sum| * t^{sigma/2} on the
# cross-validation sweep sigma in {0, 1/2, 1}, t in [30, 500]; the measured
# maximum is |C| * (2pi)^{sigma/2} with |C| <= ~0.95, so 1.5 is a safe
# recorded envelope used as the main-sum error model coefficient.
MAIN_SUM_ERROR_COEFF = 1.5

# eval_aux takes the shifted contour for t <= T_SWITCH, the sum above; the
# contour halves its panels until successive values agree within QUAD_REL
T_SWITCH = 500.0
QUAD_REL = 1.0e-9

# the path is crossing + u e^{i pi/4}, |u| <= _path_extent, run from
# u > 0 down to u < 0; e^{i pi x^2} decays at both ends only on a diagonal
_DIRECTION = cmath.exp(1j * math.pi / 4.0)
_MIN_POLE_DISTANCE = 0.2
# panel widths are halved at most this many times (the finest pass has
# panels 1/256 of the starting width)
_MAX_HALVINGS = 8
_FLOAT64_DIGIT_LIMIT = 5.0
_HARD_T_LIMIT = 1000.0


def n_main_terms(t: float) -> int:
    """Number of terms in the truncated sum: count of n with n <= sqrt(t/2pi),
    boundary inclusive.  Robust against floating-point drift of the square
    root by integer comparison against t/2pi."""
    x2 = t / TWO_PI
    if x2 < 1.0:
        return 0
    N = int(math.sqrt(x2))
    while (N + 1) * (N + 1) <= x2:
        N += 1
    while N * N > x2:
        N -= 1
    return N


def main_sum(sigma: float, t: float) -> complex:
    """Truncated Dirichlet sum  sum_{n <= sqrt(t/2pi)} n^{-sigma-it}.

    Empty sum is 0.  Phases are carried in extended precision so the result
    keeps full binary64 accuracy over the whole supported t range.
    """
    if not t > 0.0:
        raise ValueError("main_sum requires t > 0")
    return _dirichlet_sum(sigma, t, n_main_terms(t))


def _dirichlet_sum(sigma: float, t: float, n_terms: int) -> complex:
    """sum_{n=1}^{n_terms} n^{-sigma-it}, the phases reduced mod 2pi in
    extended precision."""
    if n_terms < 1:
        return 0.0 + 0.0j
    n = np.arange(1, n_terms + 1, dtype=np.float64)
    log_n = np.log(n.astype(np.longdouble))
    phase = np.mod(-t * log_n, 2.0 * np.pi).astype(np.float64)
    amp = n ** (-sigma)
    return complex(np.sum(amp * (np.cos(phase) + 1j * np.sin(phase))))


@dataclass(frozen=True)
class AuxEval:
    """One value of R(s) with its method tag, its error bound and the
    integrand or term evaluations it took (0 when served from a cache)."""

    s: complex
    value: complex
    method: str
    error_bound: float
    n_evals: int = 0


# ---------------------------------------------------------------------------
# quadrature machinery
# ---------------------------------------------------------------------------

_gl_float_cache: dict[int, tuple[np.ndarray, np.ndarray]] = {}
_gl_mp_cache: dict[tuple[int, int], tuple] = {}
_gl_lock = threading.Lock()


def _gl_float(order: int) -> tuple[np.ndarray, np.ndarray]:
    with _gl_lock:
        if order not in _gl_float_cache:
            _gl_float_cache[order] = np.polynomial.legendre.leggauss(order)
        return _gl_float_cache[order]


def _legendre_pair(ctx, order: int, x):
    p0, p1 = ctx.mpf(1), x
    for k in range(2, order + 1):
        p0, p1 = p1, ((2 * k - 1) * x * p1 - (k - 1) * p0) / k
    dp = order * (x * p1 - p0) / (x * x - 1)
    return p1, dp

def _gl_mp(order: int, dps: int):
    """Gauss-Legendre nodes/weights at `dps` digits, cached with a context
    of their own.  Float seeds are Newton-polished; convergence is quadratic
    so five iterations cover any dps this package uses."""
    key = (order, dps)
    with _gl_lock:
        hit = _gl_mp_cache.get(key)
    if hit is not None:
        return hit
    ctx = MPContext()
    ctx.dps = dps + 10
    seeds, _ = _gl_float(order)
    nodes = []
    for x0 in seeds:
        x = ctx.mpf(float(x0))
        for _ in range(5):
            p, dp = _legendre_pair(ctx, order, x)
            x = x - p / dp
        p, dp = _legendre_pair(ctx, order, x)
        nodes.append((x, 2 / ((1 - x * x) * dp * dp)))
    out = (ctx, nodes)
    with _gl_lock:
        _gl_mp_cache[key] = out
    return out


def _path_extent(t: float, crossing: float) -> float:
    """Half-length of the path, so that the integrand is below 1e-14 at both
    ends: past the saddle sqrt(t/2pi) of x^{-s} e^{i pi x^2}, and on the
    lower left out to Re x <= -2.3, since |e^{i pi x^2}| grows along the
    line while Re x > 0 > Im x."""
    return max(4.0, math.sqrt(max(t, 1.0) / math.pi) + 4.0,
               math.sqrt(2.0) * (crossing + 2.3))


def _needed_digits(s: complex, crossing: float) -> float:
    """Decimal digits destroyed by cancellation: max over the path of the
    integrand's log10-magnitude (the result itself is O(t^{1/4}))."""
    U = _path_extent(s.imag, crossing)
    u = np.linspace(-U, U, 8001)
    x = crossing + u * _DIRECTION
    m = (
        s.imag * np.angle(x)
        - math.pi * (2.0 * x.real * x.imag + np.abs(x.imag))
        - s.real * np.log(np.abs(x))
    )
    return max(0.0, float(m.max())) / math.log(10.0)


def _exponent_rate(s: complex, crossing: float, u: float) -> float:
    """Upper bound on |d/du| of the full complex exponent along the path
    (power factor, quadratic factor, and the bounded cotangent of the
    denominator)."""
    ax = abs(complex(crossing + u * _DIRECTION.real, u * _DIRECTION.imag))
    return abs(s) / max(ax, 0.35) + TWO_PI * ax + 3.6


def _panel_breaks(s: complex, crossing: float, phi_per_panel: float,
                  scale: float) -> list[float]:
    U = _path_extent(s.imag, crossing)
    breaks = [-U]
    u = -U
    while u < U:
        w = min(0.5, phi_per_panel / _exponent_rate(s, crossing, u)) * scale
        u = min(U, u + w)
        breaks.append(u)
    return breaks


def _quad_float(s: complex, crossing: float, scale: float) -> tuple[complex, int]:
    """binary64 path: order-16 panels, fully vectorized."""
    glx, glw = _gl_float(16)
    breaks = np.array(_panel_breaks(s, crossing, 4.8, scale))
    a, b = breaks[:-1], breaks[1:]
    mid = 0.5 * (a + b)
    hw = 0.5 * (b - a)
    u = (mid[:, None] + hw[:, None] * glx[None, :]).ravel()
    x = crossing + u * _DIRECTION
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        E = -s * np.log(x) + 1j * math.pi * x * x
        w = np.exp(1j * math.pi * x)
        f = np.exp(E) / (w - 1.0 / w)
    f = np.where(np.isfinite(f), f, 0.0)
    f = f.reshape(len(a), -1)
    total = complex(np.sum((f * glw[None, :]).sum(axis=1) * hw))
    return -_DIRECTION * total, u.size


def _quad_mp(s: complex, crossing: float, scale: float,
             digits_needed: float) -> tuple[complex, int]:
    """Adaptive-precision path for serious cancellation."""
    dps = int(math.ceil((digits_needed + 22.0) / 20.0) * 20)
    order = max(48, min(384, int(16 * round(1.3 * (digits_needed + 15.0) / 16.0))))
    phi = order / ((math.e / 4.0) * 10.0 ** ((digits_needed + 15.0) / (2.0 * order)))
    ctx, nodes = _gl_mp(order, dps)
    s_mp = ctx.mpc(s.real, s.imag)
    ei = ctx.expjpi(ctx.mpf(1) / 4)
    c_mp = ctx.mpf(crossing)
    pi_c = ctx.pi
    i_pi = ctx.mpc(0, 1) * pi_c
    breaks = _panel_breaks(s, crossing, phi, scale)
    total = ctx.mpc(0)
    n_evals = 0
    for a, b in zip(breaks[:-1], breaks[1:]):
        am, bm = ctx.mpf(a), ctx.mpf(b)
        hw = (bm - am) / 2
        mid = (am + bm) / 2
        acc = ctx.mpc(0)
        for xk, wk in nodes:
            x = c_mp + (mid + hw * xk) * ei
            E = -s_mp * ctx.log(x) + i_pi * x * x
            w = ctx.exp(i_pi * x)
            acc += wk * (ctx.exp(E) / (w - 1 / w))
            n_evals += 1
        total += acc * hw
    val = -ei * total
    return complex(val), n_evals


def eval_aux_direct(s: complex, crossing: float = 0.5) -> AuxEval:
    """R(s) by quadrature along the line of slope 1 that crosses the real
    axis at `crossing`, plus the residues n^{-s} of the poles 1..M it has
    passed, M the integer part of the crossing.  The default, 1/2, is the
    defining integral; the crossing must be positive (the line then misses
    the branch cut of x^{-s}) and at least 0.2 from every pole, measured
    across the line.

    The error bound is observed, not modeled: the panel widths are halved
    until successive values agree within `QUAD_REL` (absolute plus
    relative).  The bound is their difference, floored at 1e-14 relative
    and, in binary64, at the unit roundoff times the cancellation factor
    10^digits that `_needed_digits` measures.  Raises if agreement is not
    reached within `_MAX_HALVINGS` halvings.
    """
    s = complex(s)
    t = s.imag
    if not t > 0.0:
        raise ValueError("eval_aux_direct requires Im s > 0")
    if t > _HARD_T_LIMIT:
        raise RangeExceededError(
            f"direct contour evaluation capped at t = {_HARD_T_LIMIT}")
    if not crossing > 0.0:
        raise ContourError(f"crossing {crossing} is not positive")
    if abs(crossing - round(crossing)) * _DIRECTION.imag < _MIN_POLE_DISTANCE:
        raise ContourError(f"path passes within 0.2 of the pole at {round(crossing)}")
    poles = _dirichlet_sum(s.real, t, int(crossing))

    digits = _needed_digits(s, crossing)
    use_float = digits <= _FLOAT64_DIGIT_LIMIT
    floor = max(1e-14, 2.0 ** -52 * 10.0 ** digits) if use_float else 1e-14

    def run(scale: float) -> tuple[complex, int]:
        if use_float:
            v, n = _quad_float(s, crossing, scale)
        else:
            v, n = _quad_mp(s, crossing, scale, digits)
        return v + poles, n

    v1, total_evals = run(1.0)
    for k in range(1, _MAX_HALVINGS + 1):
        v2, n2 = run(0.5 ** k)
        total_evals += n2
        err = abs(v2 - v1)
        if err <= QUAD_REL * (1.0 + abs(v2)):
            bound = max(err, floor * (1.0 + abs(v2)))
            return AuxEval(s, v2, DIRECT_CONTOUR_METHOD, bound, total_evals)
        v1 = v2
    raise QuadratureConvergenceError(
        f"contour quadrature at s={s} still moving by {err:.3e} "
        f"after {_MAX_HALVINGS} halvings of the panel widths")


def main_sum_error_bound(sigma: float, t: float) -> float:
    """Recorded error model for the truncated sum: coeff(sigma) * t^{-sigma/2}."""
    return MAIN_SUM_ERROR_COEFF * TWO_PI ** (0.5 * sigma) * t ** (-0.5 * sigma)


def eval_aux(s: complex) -> AuxEval:
    """R(s) by the production route: the shifted contour for t <= T_SWITCH,
    the truncated sum with its recorded error model above."""
    s = complex(s)
    t = s.imag
    if not t > 0.0:
        raise ValueError("eval_aux requires Im s > 0")
    if t <= T_SWITCH:
        return eval_aux_direct(s, n_main_terms(t) + 0.5)
    value = main_sum(s.real, t)
    N = n_main_terms(t)
    return AuxEval(s, value, MAIN_SUM_METHOD, main_sum_error_bound(s.real, t), N)


def critical_line_decomposition(t: float) -> tuple[float, float]:
    """(Re, Im) of 2 e^{i theta(t)} R(1/2 + it).

    The real part approximates the classical Hardy function Z(t); the
    modulus dominates |zeta(1/2+it)|, with equality where the imaginary
    part vanishes.
    """
    if not t >= 1.0:
        raise ValueError("critical_line_decomposition requires t >= 1")
    r = eval_aux(complex(0.5, t))
    theta = riemann_siegel_theta(t).value
    w = 2.0 * cmath.exp(1j * theta) * r.value
    return w.real, w.imag
