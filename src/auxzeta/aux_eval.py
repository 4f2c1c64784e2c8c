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

Both contours use one rule, the nested trapezoidal sum, in binary64 or
in mpmath.  Along the line the integrand is analytic in a strip and
decays like a Gaussian at both ends, so the equispaced sum converges
exponentially (Trefethen and Weideman, SIAM Rev. 56, 2014), and each
halving of the step reuses every node already summed.

``eval_aux`` is the one production evaluator: the shifted contour up to
``T_SWITCH``, the truncated sum above (the contour is capped at
t = 1000).  The ``AuxEval`` it returns -- value, method tag,
error bound, work done -- is the record that the CLI writes to its cache
and to the ``eval.csv`` row.  The contour's error bound is the observed
change under the last halving of the step, once two successive changes
are within ``QUAD_REL`` (absolute plus relative), and never below the
roundoff that the cancellation along the line amplifies.
``critical_line_decomposition`` exposes 2 e^{i theta(t)} R(1/2+it), whose
real part is the classical Hardy function.
"""

from __future__ import annotations

import cmath
import math
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
# contour halves its step until two successive differences are within QUAD_REL
T_SWITCH = 500.0
QUAD_REL = 1.0e-9

# the path is crossing + u e^{i pi/4}, |u| <= _path_extent, run from
# u > 0 down to u < 0; e^{i pi x^2} decays at both ends only on a diagonal
_DIRECTION = cmath.exp(1j * math.pi / 4.0)
_MIN_POLE_DISTANCE = 0.2
# the trapezoidal step starts at 1/2 and is halved at most _MAX_HALVINGS
# times; the unshifted line at (1/2, 1000), the hardest point under the t
# cap, stops after 10
_FIRST_STEP = 0.5
_MAX_HALVINGS = 12
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
# quadrature: the nested trapezoidal rule along the line
# ---------------------------------------------------------------------------

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


def _quad_float(s: complex, crossing: float, u: np.ndarray) -> tuple[complex, int]:
    """binary64 pass: the sum of the integrand over the nodes u of the
    path, and their count.  A value that is not finite counts as 0."""
    x = crossing + u * _DIRECTION
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        w = np.exp(1j * math.pi * x)
        f = np.exp(-s * np.log(x) + 1j * math.pi * x * x) / (w - 1.0 / w)
    return complex(np.sum(f[np.isfinite(f)])), u.size


def _quad_mp(s: complex, crossing: float, u: np.ndarray,
             ctx: MPContext) -> tuple:
    """mpmath pass at the working precision of `ctx`: the sum of the
    integrand over the nodes u of the path, left in `ctx` so that the
    running sum keeps every digit the cancellation needs, and their
    count.  The nodes are dyadic, so they convert to mp exactly."""
    s_mp = ctx.mpc(s.real, s.imag)
    ei = ctx.expjpi(ctx.mpf(1) / 4)
    i_pi = ctx.mpc(0, ctx.pi)
    total = ctx.mpc(0)
    for uk in u.tolist():
        x = crossing + uk * ei
        w = ctx.exp(i_pi * x)
        total += ctx.exp(i_pi * x * x - s_mp * ctx.log(x)) / (w - 1 / w)
    return total, u.size


def eval_aux_direct(s: complex, crossing: float = 0.5) -> AuxEval:
    """R(s) by quadrature along the line of slope 1 that crosses the real
    axis at `crossing`, plus the residues n^{-s} of the poles 1..M it has
    passed, M the integer part of the crossing.  The default, 1/2, is the
    defining integral; the crossing must be positive (the line then misses
    the branch cut of x^{-s}) and at least 0.2 from every pole, measured
    across the line.

    The rule is the trapezoidal sum over the nodes u = k h, |u| <=
    `_path_extent`.  The step h starts at 1/2 and is halved, and each
    halving evaluates only the new odd-k nodes, so no node is computed
    twice.  The integrand is analytic in a strip about the line and
    decays like a Gaussian at both ends, so the sums converge
    exponentially.  The error bound is observed, not modeled: the step is
    halved until two successive differences are within `QUAD_REL`
    (absolute plus relative).  The bound is the last difference, floored
    at 1e-14 relative and, in binary64, at the unit roundoff times the
    cancellation factor 10^digits that `_needed_digits` measures.  Raises
    if that is not reached within `_MAX_HALVINGS` halvings.
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
    if digits <= _FLOAT64_DIGIT_LIMIT:
        ctx, total = None, 0j
        floor = max(1e-14, 2.0 ** -52 * 10.0 ** digits)
    else:
        ctx = MPContext()
        ctx.dps = int(math.ceil((digits + 22.0) / 20.0) * 20)
        total, floor = ctx.mpc(0), 1e-14

    U = _path_extent(t, crossing)
    h = _FIRST_STEP
    n_evals = agreed = 0
    for level in range(_MAX_HALVINGS + 1):
        k = np.arange(-math.floor(U / h), math.floor(U / h) + 1)
        if level:
            k = k[k % 2 == 1]
        part, n = (_quad_float(s, crossing, k * h) if ctx is None
                   else _quad_mp(s, crossing, k * h, ctx))
        total += part
        n_evals += n
        value = complex(-_DIRECTION * h * total) + poles
        if level:
            err = abs(value - prev)
            agreed = agreed + 1 if err <= QUAD_REL * (1.0 + abs(value)) else 0
            if agreed == 2:
                bound = max(err, floor * (1.0 + abs(value)))
                return AuxEval(s, value, DIRECT_CONTOUR_METHOD, bound, n_evals)
        prev = value
        h /= 2.0
    raise QuadratureConvergenceError(
        f"contour quadrature at s={s} still moving by {err:.3e} "
        f"after {_MAX_HALVINGS} halvings of the step")


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
