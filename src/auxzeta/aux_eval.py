"""Evaluation of Riemann's auxiliary function R(s) for Im s > 0.

Two independent routes:

* ``main_sum`` -- the truncated Dirichlet sum over n <= sqrt(t/2pi), which
  approximates R(sigma+it) with remainder O(t^{-sigma/2});
* ``eval_aux_direct`` -- composite Gauss-Legendre quadrature of the defining
  line integral

      R(s) = int  x^{-s} e^{i pi x^2} / (e^{i pi x} - e^{-i pi x}) dx

  along the straight line of slope 1 crossing the real axis inside (0,1),
  traversed from the upper right to the lower left.

The line integral is exact but badly conditioned: the integrand reaches
magnitude exp(max_u [t arg x(u) - pi Im x(u)^2 - pi |Im x(u)|]) while the
result stays O(t^{1/4}), so the quadrature runs in adaptive working
precision (mpmath) sized to that cancellation, with a binary64 fast path
when the cancellation is mild.  Panel widths shrink inversely with the
local derivative of the full complex exponent and the Gauss order grows
with the required digits, which keeps the node count near two per radian
of exponent variation instead of exploding.

``route`` is the one place that chooses between the two routes: the
contour up to ``t_switch``, the sum above.  ``eval_aux`` follows it and
tags the result, and the CLI keys its cache by the same tag.
``critical_line_decomposition`` exposes 2 e^{i theta(t)} R(1/2+it),
whose real part is the classical Hardy function.
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

_MIN_POLE_DISTANCE = 0.2
_MAX_NODES_PER_UNIT = 4096
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
    N = n_main_terms(t)
    if N < 1:
        return 0.0 + 0.0j
    n = np.arange(1, N + 1, dtype=np.float64)
    log_n = np.log(n.astype(np.longdouble))
    phase = np.mod(-t * log_n, 2.0 * np.pi).astype(np.float64)
    amp = n ** (-sigma)
    return complex(np.sum(amp * (np.cos(phase) + 1j * np.sin(phase))))


@dataclass(frozen=True)
class ContourSpec:
    """Straight-line contour for the defining integral.

    The path is crossing + u*exp(i*direction_angle), u in [-half_length,
    half_length], traversed from u = +half_length down to u = -half_length.
    The crossing must lie strictly inside (0,1) and far enough from the
    integrand poles at the integers; the Gaussian factor e^{i pi x^2} only
    decays along directions with sin(2*angle) > 0, which pins the slope.
    """

    crossing: float = 0.5
    direction_angle: float = math.pi / 4.0
    half_length: float = 8.0
    nodes_per_unit: int = 32

    def validate(self) -> None:
        if not (0.0 < self.crossing < 1.0):
            raise ContourError(f"crossing {self.crossing} outside (0,1)")
        k = (self.direction_angle - math.pi / 4.0) / math.pi
        if abs(k - round(k)) > 1e-9:
            raise ContourError(
                "direction_angle must equal pi/4 modulo pi for the quadratic "
                f"factor to decay, got {self.direction_angle}"
            )
        if math.sin(2.0 * self.direction_angle) <= 0.0:
            raise ContourError("e^{i pi x^2} does not decay along this direction")
        if not self.half_length > 0.0:
            raise ContourError("half_length must be positive")
        if self.nodes_per_unit < 1:
            raise ContourError("nodes_per_unit must be >= 1")
        sin_dir = abs(math.sin(self.direction_angle))
        for n in range(-2, int(self.crossing + self.half_length) + 3):
            if abs(n - self.crossing) * sin_dir < _MIN_POLE_DISTANCE:
                raise ContourError(f"path passes within 0.2 of the pole at {n}")


def default_contour(t: float, nodes_per_unit: int = 32) -> ContourSpec:
    """Contour sized so the Gaussian factor is below 1e-14 at the endpoints."""
    U = max(4.0, math.sqrt(max(t, 1.0) / math.pi) + 4.0)
    return ContourSpec(crossing=0.5, direction_angle=math.pi / 4.0,
                       half_length=U, nodes_per_unit=nodes_per_unit)


@dataclass(frozen=True)
class AuxEval:
    """One computed value of R(s) with its method tag and error bound."""

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


def _needed_digits(s: complex, contour: ContourSpec) -> float:
    """Decimal digits destroyed by cancellation: max over the path of the
    integrand's log10-magnitude (the result itself is O(t^{1/4}))."""
    U = contour.half_length
    u = np.linspace(-U, U, 8001)
    x = contour.crossing + u * cmath.exp(1j * contour.direction_angle)
    m = (
        s.imag * np.angle(x)
        - math.pi * (2.0 * x.real * x.imag + np.abs(x.imag))
        - s.real * np.log(np.abs(x))
    )
    return max(0.0, float(m.max())) / math.log(10.0)


def _exponent_rate(s: complex, contour: ContourSpec, u: float) -> float:
    """Upper bound on |d/du| of the full complex exponent along the path
    (power factor, quadratic factor, and the bounded cotangent of the
    denominator)."""
    x = complex(
        contour.crossing + u * math.cos(contour.direction_angle),
        u * math.sin(contour.direction_angle),
    )
    ax = abs(x)
    return abs(s) / max(ax, 0.35) + TWO_PI * ax + 3.6


def _panel_breaks(s: complex, contour: ContourSpec, phi_per_panel: float,
                  scale: float) -> list[float]:
    U = contour.half_length
    breaks = [-U]
    u = -U
    while u < U:
        w = min(0.5, phi_per_panel / _exponent_rate(s, contour, u)) * scale
        u = min(U, u + w)
        breaks.append(u)
    return breaks


def _quad_float(s: complex, contour: ContourSpec, scale: float) -> tuple[complex, int]:
    """binary64 path: order-16 panels, fully vectorized."""
    glx, glw = _gl_float(16)
    breaks = np.array(_panel_breaks(s, contour, 4.8, scale))
    a, b = breaks[:-1], breaks[1:]
    mid = 0.5 * (a + b)
    hw = 0.5 * (b - a)
    u = (mid[:, None] + hw[:, None] * glx[None, :]).ravel()
    ei = cmath.exp(1j * contour.direction_angle)
    x = contour.crossing + u * ei
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        E = -s * np.log(x) + 1j * math.pi * x * x
        w = np.exp(1j * math.pi * x)
        f = np.exp(E) / (w - 1.0 / w)
    f = np.where(np.isfinite(f), f, 0.0)
    f = f.reshape(len(a), -1)
    total = complex(np.sum((f * glw[None, :]).sum(axis=1) * hw))
    return -ei * total, u.size


def _quad_mp(s: complex, contour: ContourSpec, scale: float,
             digits_needed: float) -> tuple[complex, int]:
    """Adaptive-precision path for serious cancellation."""
    dps = int(math.ceil((digits_needed + 22.0) / 20.0) * 20)
    order = max(48, min(384, int(16 * round(1.3 * (digits_needed + 15.0) / 16.0))))
    phi = order / ((math.e / 4.0) * 10.0 ** ((digits_needed + 15.0) / (2.0 * order)))
    ctx, nodes = _gl_mp(order, dps)
    s_mp = ctx.mpc(s.real, s.imag)
    ei = ctx.expjpi(ctx.mpf(1) / 4) if abs(contour.direction_angle - math.pi / 4) < 1e-12 \
        else ctx.exp(ctx.mpc(0, contour.direction_angle))
    c_mp = ctx.mpf(contour.crossing)
    pi_c = ctx.pi
    i_pi = ctx.mpc(0, 1) * pi_c
    breaks = _panel_breaks(s, contour, phi, scale)
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


def eval_aux_direct(s: complex, contour: ContourSpec | None = None,
                    tol: float = 1.0e-9) -> AuxEval:
    """R(s) by direct quadrature of the defining line integral.

    The error bound is observed, not modeled: the node density is doubled
    and the value accepted once successive refinements agree within `tol`
    (absolute plus relative).  Raises if agreement is not reached before
    the density cap.
    """
    s = complex(s)
    t = s.imag
    if not t > 0.0:
        raise ValueError("eval_aux_direct requires Im s > 0")
    if t > _HARD_T_LIMIT:
        raise RangeExceededError(
            f"direct contour evaluation capped at t = {_HARD_T_LIMIT}")
    if contour is None:
        contour = default_contour(t)
    contour.validate()

    digits = _needed_digits(s, contour)
    density = contour.nodes_per_unit
    scale = 32.0 / density
    use_float = digits <= _FLOAT64_DIGIT_LIMIT

    def run(sc: float) -> tuple[complex, int]:
        if use_float:
            return _quad_float(s, contour, sc)
        return _quad_mp(s, contour, sc, digits)

    v1, n1 = run(scale)
    total_evals = n1
    while True:
        v2, n2 = run(scale / 2.0)
        total_evals += n2
        err = abs(v2 - v1)
        if err <= tol * (1.0 + abs(v2)):
            bound = max(err, 1e-14 * (1.0 + abs(v2)))
            return AuxEval(s, v2, DIRECT_CONTOUR_METHOD, bound, total_evals)
        density *= 2
        if density > _MAX_NODES_PER_UNIT:
            raise QuadratureConvergenceError(
                f"contour quadrature at s={s} still moving by {err:.3e} "
                f"at the node-density cap")
        scale /= 2.0
        v1 = v2


def main_sum_error_bound(sigma: float, t: float) -> float:
    """Recorded error model for the truncated sum: coeff(sigma) * t^{-sigma/2}."""
    return MAIN_SUM_ERROR_COEFF * TWO_PI ** (0.5 * sigma) * t ** (-0.5 * sigma)


def route(t: float, t_switch: float = 500.0) -> str:
    """Method tag of the route that evaluates R(sigma+it): the direct
    contour for t <= t_switch, the truncated sum above."""
    return DIRECT_CONTOUR_METHOD if t <= t_switch else MAIN_SUM_METHOD


def eval_aux(s: complex, t_switch: float = 500.0, tol: float = 1.0e-9) -> AuxEval:
    """R(s) by the route that `route` picks; `tol` is the contour's
    refinement tolerance."""
    s = complex(s)
    t = s.imag
    if not t > 0.0:
        raise ValueError("eval_aux requires Im s > 0")
    if route(t, t_switch) == DIRECT_CONTOUR_METHOD:
        return eval_aux_direct(s, tol=tol)
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
