"""Second-moment integrals of the truncated main sum, two independent ways.

With S(t) the truncated Dirichlet sum and w(t) = (t/2pi)^sigma or 1, the
engine computes

    F(T) = int_1^T |S(t)|^2 w(t) dt

(a) by a streaming order-8 Gauss-Legendre pass over runs of equal panels,
four to a period of |S|^2's fastest oscillation, and (b) through the exact
split

    F(T) = [diagonal]  sum_{n} n^{-2s} int_{2pi n^2}^T w(t) dt
         + [cross]   2 sum_{m<n} (nm)^{-s} int_{2pi n^2}^T w(t) cos(t log(n/m)) dt,

whose diagonal part has a closed form and whose cross part is either an
exact sine difference (unweighted) or a per-pair oscillatory quadrature
(weighted).  The two routes agreeing to quadrature tolerance is the core
exactness check of the package.  Both sum order-8 Gauss-Legendre panels
under the same proven bound (`bound_checks._gl8_error`), on separate nodes.

A run lies between two consecutive term-entry points 2pi n^2 or requested
T's, so the term count N and the panel width h are fixed on it, and at the
node lo + (jB + i) h + h/2 + (h/2) x_m of its k panels n^{-it} is a block
factor times an in-block factor (B ~ sqrt(k)) times a node factor.  S at
every node of a run then takes about (2 sqrt(k) + 8) N exponentials and
one matrix product a tile, block factors times one N x 8B matrix of
in-block times node factors, instead of 8 k N exponentials: the phase
factoring of Odlyzko and Schonhage (Trans. AMS 309, 1988) without the
rest of their algorithm.  :mod:`auxzeta.aux_eval` validates S pointwise.

Determinism contract: the runs are a pure function of (T_max, grid); each
is folded over tiles fixed by (k, N), on one OpenBLAS thread, and kept by
run, whichever of the stream's workers folds it (that too is fixed by (N,
k)), so identical configurations give bit-identical samples whatever the
thread budget.  Without numpy's OpenBLAS thread controls the products run
at BLAS's own count, and above N = 128 its threads move values by ulps.
"""

from __future__ import annotations

import bisect
import ctypes
import functools
import math
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .aux_eval import TWO_PI, TWO_PI_LONG, n_main_terms
from .bound_checks import _GLW8, _GLX8, _U, _U_LD, _gl8_error, osc_integral
from .errors import BudgetExceededError, CoverageError

_PAIR_BUDGET_SQRT = 1500.0
# complex values in each operand and the output of one tile's matrix
# product (4 MiB of complex128), so memory does not grow with a run's length
_CHUNK_TERMS = 1 << 18
# node-terms 8 k N from which a stream with threads > 1 folds a run on a worker:
# on 2 cores a second worker saves more wall than it adds CPU time from this
# much work a run; the runs between consecutive 2pi n^2 reach it from N = 86
_SPLIT_TERMS = 1 << 21


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


def diagonal_closed_form(sigma: float, T: float, weighted: bool) -> float:
    """Exact diagonal part: sum_n n^{-2s} int_{2pi n^2}^T w(t) dt.

    Weighted general case integrates (t/2pi)^s in closed form; the
    weighted sigma = -1 case is logarithmic and handled separately;
    unweighted is a plain width sum.
    """
    if not T >= TWO_PI:
        raise ValueError("requires T >= 2*pi")
    n = np.arange(1, n_main_terms(T) + 1, dtype=np.float64)
    if not weighted:
        return float(np.sum(n ** (-2.0 * sigma) * (T - TWO_PI * n * n)))
    if sigma == -1.0:
        return float(TWO_PI * np.sum(n * n * np.log(T / (TWO_PI * n * n))))
    return float(
        TWO_PI ** (-sigma)
        * np.sum((T ** (sigma + 1.0) - (TWO_PI * n * n) ** (sigma + 1.0))
                 / (n ** (2.0 * sigma) * (sigma + 1.0)))
    )


def cross_term_value(sigma: float, T: float, weighted: bool) -> float:
    """Cross part: 2 sum_{m<n<=sqrt(T/2pi)} (nm)^{-s} int_{2pi n^2}^T w cos(t L) dt
    with L = log(n/m).

    Unweighted pairs, and weighted ones at sigma = 0 where w = 1, have the
    exact antiderivative sin(tL)/L; other weighted pairs add the value of
    `osc_integral`, on its own mesh over [2pi n^2, T].  Pair count is
    budgeted at sqrt(T/2pi) <= 1500.
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
    if not weighted or sigma == 0.0:
        for nn in range(2, N + 1):
            m = np.arange(1, nn, dtype=np.float64)
            L = math.log(nn) - np.log(m)
            lo = TWO_PI * nn * nn
            coef = nn ** (-sigma) * m ** (-sigma)
            total += float(np.sum(coef * (np.sin(T * L) - np.sin(lo * L)) / L))
        return 2.0 * total
    for nn in range(2, N + 1):
        lo = TWO_PI * nn * nn
        if lo >= T:  # the term enters at T: an empty window
            continue
        for m in range(1, nn):
            total += (nn * m) ** -sigma * osc_integral(lo, T, sigma, math.log(nn / m)).value
    return 2.0 * TWO_PI ** -sigma * total


def panel_width(t: float) -> float:
    """Streaming panel width, tied to the fastest oscillation log sqrt(t/2pi)
    in |S|^2; the pi/2 factor keeps at least four panels (32 nodes) per
    period.  There `_run_error`'s Gauss-Legendre terms are at most 1.4e-3 of
    a stream's bound, which the roundoff of S sets; finer panels would buy
    nothing the bound can see, and 8/3 a period would let the rule term
    reach two thirds of it."""
    return min(0.5, math.pi / (2.0 * math.log(2.0 + math.sqrt(t / TWO_PI))))


def _runs(T_max: float, markers: list[float]) -> list[tuple[float, float, int]]:
    """Deterministic decomposition of [1, T_max] into runs (lo, hi, k).

    Run ends are snapped to every marker: the term-entry points 2 pi n^2
    (where |S|^2 jumps) and every requested grid T (where a sample is
    emitted).  A run is cut into k equal panels, none wider than
    `panel_width` at its right end.
    """
    special = sorted({TWO_PI * k * k for k in range(1, int(math.sqrt(T_max / TWO_PI)) + 2)
                      if 1.0 < TWO_PI * k * k < T_max}
                     | {float(m) for m in markers if 1.0 < m < T_max}
                     | {T_max})
    runs = []
    lo = 1.0
    for hi in special:
        if hi > lo + 1e-12:
            runs.append((lo, hi, math.ceil((hi - lo) / panel_width(hi))))
            lo = hi
    return runs


def _phases(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """exp(-i a b) on the outer grid a x b, reduced mod 2pi in extended precision."""
    return np.exp(-1j * np.mod(np.outer(a, b), TWO_PI_LONG).astype(np.float64))


def _take(ws: dict, name: str, shape: tuple, dtype=np.float64) -> np.ndarray:
    """Buffer `name` of a fold workspace, grown on demand, reused over tiles and runs."""
    size = math.prod(shape)
    if name not in ws or ws[name].size < size:
        ws[name] = np.empty(size, dtype)
    return ws[name][:size].reshape(shape)


def _fold_run(sigma: float, weighted: bool, lo: float, h: float, k: int, N: int,
              ws: dict | None = None) -> np.ndarray:
    """|S|^2 w at the 8 nodes of each of the k panels of width h from lo, N
    terms: S = block @ R a tile, R[n, 8i + m] = in-block[n, i] node[n, m].
    The result is a view of workspace `ws` (a fresh one if None)."""
    if N == 0:
        return np.zeros((k, 8))
    ws = {} if ws is None else ws
    B = math.isqrt(k - 1) + 1
    n_blocks = -(-k // B)
    log_n = np.log(np.arange(1, N + 1, dtype=np.longdouble))
    block = _phases(lo + h * (0.5 + B * np.arange(n_blocks, dtype=np.longdouble)), log_n)
    node = (np.arange(1.0, N + 1.0)[:, None] ** -sigma
            * _phases(log_n, 0.5 * h * _GLX8.astype(np.longdouble)))
    vals = _take(ws, "vals", (n_blocks, B, 8))
    cols = max(1, min(B, _CHUNK_TERMS // (8 * N)))
    rows = max(1, min(n_blocks, _CHUNK_TERMS // N, _CHUNK_TERMS // (8 * cols)))
    for i0 in range(0, B, cols):
        i = np.arange(i0, min(i0 + cols, B))
        in_block = _phases(log_n, h * i.astype(np.longdouble))
        R = np.multiply(in_block[:, :, None], node[:, None, :],
                        out=_take(ws, "R", (N, len(i), 8), complex)).reshape(N, -1)
        for j0 in range(0, n_blocks, rows):
            blk = block[j0:j0 + rows]
            S = np.matmul(blk, R, out=_take(ws, "S", (len(blk), R.shape[1]), complex))
            tile = vals[j0:j0 + len(S), i0:i0 + len(i)]
            np.square(S.real.reshape(tile.shape), out=tile)
            tile += np.square(S.imag.reshape(tile.shape), out=_take(ws, "w", tile.shape))
            if weighted and sigma != 0.0:
                mid = lo + h * (0.5 + B * np.arange(j0, j0 + len(S))[:, None] + i)
                w = np.add(mid[:, :, None], 0.5 * h * _GLX8, out=_take(ws, "w", tile.shape))
                w /= TWO_PI
                w **= sigma
                tile *= w
    return vals.reshape(-1, 8)[:k]


@dataclass(frozen=True)
class MomentStream:
    """The measure dF of one streaming pass to t_max, run by run: a run's
    (lo, h, dF) holds dF[p, m] = (h/2) w_m |S|^2 w at the node
    lo + (p + 1/2) h + (h/2) x_m of its panel p, so F(T) sums dF up to T."""

    t_max: float
    runs: list[tuple[float, float, np.ndarray]]


class _OneBlasThread:
    """Holds OpenBLAS, whose thread count is process-wide, at one thread while
    any stream is inside; the last one out restores the count the first found.
    Without OpenBLAS's controls in numpy's own build it does nothing."""

    def __init__(self):
        self._lock, self._users, self._saved = threading.Lock(), 0, 1

    @functools.cached_property
    def controls(self):
        """OpenBLAS's (get, set) thread-count functions, or None; looked up once."""
        lib = ctypes.CDLL(np.linalg._umath_linalg.__file__)
        for name in ("scipy_openblas_{}_num_threads64_", "scipy_openblas_{}_num_threads",
                     "openblas_{}_num_threads64_", "openblas_{}_num_threads"):
            get, put = (getattr(lib, name.format(f), None) for f in ("get", "set"))
            if get and put:
                get.argtypes, get.restype = [], ctypes.c_int
                put.argtypes, put.restype = [ctypes.c_int], None
                return get, put
        return None

    def __enter__(self):
        with self._lock:
            if self._users == 0 and self.controls:
                self._saved = self.controls[0]()
                self.controls[1](1)
            self._users += 1

    def __exit__(self, *exc_info):
        with self._lock:
            self._users -= 1
            if self._users == 0 and self.controls:
                self.controls[1](self._saved)


_ONE_BLAS_THREAD = _OneBlasThread()


def _run_error(sigma: float, weighted: bool, lo: float, hi: float, k: int, N: int,
               F_run: float) -> float:
    """Proven error bound of a run's folded sum F_run, N >= 1 terms.

    On each panel's ellipse, rho = min(18/(hw log N), lo/hw, 64), |S|^2 w is
    at most (sum n^{-sigma+B})^2 max|w|.  Each node's S is within
    delta = ((N+17) u + 3 u_ld hi log N) sum n^{-sigma}, so by Cauchy-Schwarz
    roundoff adds 2 delta sqrt(F_run W) + delta^2 W, W = (hi - lo) max w.
    `_fold_run`'s contraction order keeps each term's phases and roundings.
    """
    hw, log_N = 0.5 * (hi - lo) / k, math.log(N)
    rho = min(18.0 / (hw * log_N) if N > 1 else math.inf, lo / hw, 64.0)
    A, B = 0.5 * hw * (rho + 1.0 / rho), 0.5 * hw * (rho - 1.0 / rho)
    n = np.arange(1.0, N + 1.0)
    w_max = 1.0  # on the panels' ellipses, which cover [lo, hi]
    if weighted:
        w_max = max(((lo + hw - A) / TWO_PI) ** sigma, ((hi - hw + A) / TWO_PI) ** sigma)
    M = float(np.sum(n ** (B - sigma))) ** 2 * w_max
    W = (hi - lo) * w_max
    delta = ((N + 17) * _U + 3.0 * _U_LD * hi * log_N) * float(np.sum(n ** -sigma))
    return k * _gl8_error(hw, rho, M) + 2.0 * delta * math.sqrt(F_run * W) + delta * delta * W


def _stream(sigma: float, T_grid: list[float], weighted: bool, keep_measure: bool = False,
            threads: int = 1) -> tuple[dict, int, list]:
    """One deterministic streaming pass to max(T_grid).

    Returns ({T: (F(T), quad_error(T))}, n_evals, the runs' (lo, h, dF) if
    keep_measure else []).  F(T) is math.fsum of the runs' math.fsum totals
    up to T, and quad_error(T) adds the runs' `_run_error` bounds and
    (runs + 1) 2u F(T) for those sums.
    """
    T_max = max(T_grid)
    x = math.sqrt(T_max / TWO_PI)
    if x > _PAIR_BUDGET_SQRT:
        raise BudgetExceededError(f"sqrt(T/2pi) = {x:.1f} exceeds {_PAIR_BUDGET_SQRT}")
    runs = [(lo, hi, k, n_main_terms(0.5 * (lo + hi))) for lo, hi, k in _runs(T_max, T_grid)]
    spaces = {}  # thread id -> that thread's fold workspace

    def fold(run):
        lo, hi, k, N = run
        h = (hi - lo) / k
        ws = spaces.setdefault(threading.get_ident(), {})
        vals = _fold_run(sigma, weighted, lo, h, k, N, ws)
        weights = 0.5 * h * _GLW8
        total = math.fsum((vals @ weights).tolist())
        bound = _run_error(sigma, weighted, lo, hi, k, N, total) if N else 0.0
        return total, bound, (lo, h, vals * weights) if keep_measure else None

    with _ONE_BLAS_THREAD:
        folded = {r: fold(r) for r in runs if threads <= 1 or 8 * r[2] * r[3] < _SPLIT_TERMS}
        large = [r for r in runs if r not in folded]
        if large:
            with ThreadPoolExecutor(threads) as pool:
                folded.update(zip(large, pool.map(fold, large)))
    totals, bounds, measure = zip(*(folded[r] for r in runs))

    ends = [hi for _, hi, _, _ in runs]
    samples = {}
    for T in T_grid:
        r = min(bisect.bisect_left(ends, T - 1e-9) + 1, len(runs))
        F_T = math.fsum(totals[:r])
        samples[T] = (F_T, math.fsum(bounds[:r]) + 2.0 * (r + 1) * _U * F_T)
    return samples, 8 * sum(k for _, _, k, _ in runs), list(measure) if keep_measure else []


def integrate_mean(sigma: float, t_grid: list[float], weighted: bool, threads: int = 1
                   ) -> list[MeanValueSample]:
    """Streaming moment values at each requested T (sorted ascending, >= 2pi);
    one pass serves the whole grid, on up to `threads` threads."""
    if len(t_grid) == 0:
        return []
    grid = [float(T) for T in t_grid]
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ValueError("T grid must be strictly ascending")
    if grid[0] < TWO_PI:
        raise ValueError("T grid must start at or above 2*pi")
    samples, n_evals, _ = _stream(sigma, grid, weighted, threads=threads)
    return [MeanValueSample(sigma, T, weighted, raw / T, raw, quad_err, n_evals)
            for T, (raw, quad_err) in samples.items()]


def moment_stream(sigma: float, T_max: float, weighted: bool, threads: int = 1
                  ) -> MomentStream:
    """The measure dF at every node of one pass up to T_max (for transforms)."""
    if not T_max >= TWO_PI:  # S is empty below 2pi, where its first term enters
        raise CoverageError(f"T_max = {T_max!r} is below 2*pi: the stream holds no term")
    return MomentStream(float(T_max), _stream(sigma, [float(T_max)], weighted, True, threads)[2])


def decomposition_check(sigma: float, T: float, weighted: bool) -> float:
    """Relative discrepancy |streamed integral - (diagonal + cross)| over
    (diagonal + |cross|).  Both sides are computed independently; the
    identity is exact, so this measures pure quadrature error.
    """
    diagonal = diagonal_closed_form(sigma, T, weighted)
    cross = cross_term_value(sigma, T, weighted)
    lhs = _stream(sigma, [float(T)], weighted)[0][float(T)][0]
    return abs(lhs - (diagonal + cross)) / (diagonal + abs(cross))
