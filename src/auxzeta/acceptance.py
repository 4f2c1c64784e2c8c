"""The acceptance gate: nine numbered criteria, each a self-contained run.

Each criterion returns a :class:`CriterionResult` with pass/fail, detail
lines, and wall time; ``run_all`` executes any subset.  Tolerances are
fixed here, not calibrated at run time.  The asymptotic envelopes carry
sigma-dependent constants, so the criteria mix exact-identity checks
(decomposition), oracle calibration (synthetic Laplace input), and
scaled-residual boundedness at desk scale.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import aux_eval, bound_checks, laplace, mean_value, predictors
from .aux_eval import TWO_PI
from .config import RunConfig
from .special_functions import EULER_GAMMA, complex_zeta


@dataclass
class CriterionResult:
    number: int
    title: str
    passed: bool
    details: list[str] = field(default_factory=list)
    elapsed_s: float = 0.0

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"criterion {self.number} [{status}] {self.title} ({self.elapsed_s:.1f}s)"


def _result(number, title, passed, details, t0) -> CriterionResult:
    return CriterionResult(number, title, bool(passed), details,
                           time.time() - t0)


def criterion_1() -> CriterionResult:
    """Decomposition exactness: streamed integral vs diagonal + cross parts."""
    t0 = time.time()
    details, ok = [], True
    for sigma in (-1.0, 0.0, 0.25, 0.5, 1.0, 2.0):
        for T in (TWO_PI * 100.0, TWO_PI * 400.0):
            for weighted in (True, False):
                disc = mean_value.decomposition_check(sigma, T, weighted)
                good = disc <= 1.0e-6
                ok &= good
                details.append(
                    f"sigma={sigma:+.2f} T/2pi={T / TWO_PI:.0f} "
                    f"weighted={weighted}: discrepancy={disc:.3e}"
                    + ("" if good else "  <-- above 1e-6"))
    return _result(1, "decomposition exactness <= 1e-6", ok, details, t0)


def criterion_2() -> CriterionResult:
    """Weighted sigma=0 moment: scaled residual non-increasing, 5% at top."""
    t0 = time.time()
    grid = [TWO_PI * 1.0e3, TWO_PI * 4.0e3, TWO_PI * 1.0e4]
    samples = mean_value.integrate_mean(0.0, grid, weighted=True)
    scaled = []
    details = []
    for s in samples:
        main = (2.0 / 3.0) * math.sqrt(s.T / TWO_PI)
        sc = abs(s.value - main) * s.T ** -0.25
        scaled.append(sc)
        details.append(f"T/2pi={s.T / TWO_PI:.0f}: value={s.value:.4f} "
                       f"main={main:.4f} scaled_resid={sc:.4f}")
    monotone = all(b <= a + 1e-12 for a, b in zip(scaled, scaled[1:]))
    bounded = max(scaled) <= 1.0
    top = samples[-1]
    main_top = (2.0 / 3.0) * math.sqrt(top.T / TWO_PI)
    within5 = abs(top.value - main_top) <= 0.05 * main_top
    details.append(f"monotone={monotone} bounded={bounded} "
                   f"top value {top.value:.4f} vs {main_top:.4f} "
                   f"({100 * abs(top.value - main_top) / main_top:.2f}%)")
    return _result(2, "weighted sigma=0 main term", monotone and bounded and within5,
                   details, t0)


def criterion_3() -> CriterionResult:
    """Critical-constant discrimination by least-squares fit."""
    t0 = time.time()
    Ts = [TWO_PI * x for x in np.unique(np.round(np.logspace(3, 4, 25)))]
    samples = mean_value.integrate_mean(0.5, Ts, weighted=True)
    xs, ys = [], []
    for s in samples:
        x = math.sqrt(s.T / TWO_PI)
        xs.append(x)
        ys.append(s.value - (1.0 / 3.0) * x * math.log(s.T / TWO_PI))
    xs = np.asarray(xs)
    ys = np.asarray(ys)
    c = float((xs * ys).sum() / (xs * xs).sum())
    derived = predictors.CRITICAL_CONSTANT_DERIVED
    alternate = predictors.CRITICAL_CONSTANT_ALTERNATE
    ok = abs(c - derived) < 0.15
    rejects_alternate = abs(c - alternate) > 0.15
    details = [
        f"fitted c = {c:.5f}",
        f"derived candidate  2(3g-1)/9 = {derived:.5f}  |c-.|={abs(c - derived):.5f}",
        f"alternate candidate 2(3g-4)/9 = {alternate:.5f}  |c-.|={abs(c - alternate):.5f}",
        f"alternate rejected: {rejects_alternate}",
    ]
    return _result(3, "critical-case constant fit |c - 2(3g-1)/9| < 0.15",
                   ok and rejects_alternate, details, t0)


def criterion_4() -> CriterionResult:
    """Unweighted sigma=2 convergence to zeta(4) at rate 10/T."""
    t0 = time.time()
    target = math.pi**4 / 90.0
    grid = [TWO_PI * x for x in (1.0e3, 2.0e3, 4.0e3, 1.0e4)]
    samples = mean_value.integrate_mean(2.0, grid, weighted=False)
    details, ok = [], True
    for s in samples:
        gap = abs(s.value - target)
        allowed = 10.0 / s.T
        good = gap <= allowed
        ok &= good
        details.append(f"T/2pi={s.T / TWO_PI:.0f}: |value-zeta(4)|*T = {gap * s.T:.4f}"
                       f" (allowed 10)" + ("" if good else "  <-- FAIL"))
    return _result(4, "unweighted sigma=2: |value - pi^4/90| <= 10/T", ok, details, t0)


def criterion_5() -> CriterionResult:
    """Unweighted sigma=1/2: scaled residual bounded on the grid."""
    t0 = time.time()
    grid = [TWO_PI * x for x in (1.0e3, 2.0e3, 3.0e3, 5.0e3, 7.0e3, 1.0e4)]
    samples = mean_value.integrate_mean(0.5, grid, weighted=False)
    details, scaled = [], []
    for s in samples:
        main = 0.5 * math.log(s.T / TWO_PI) + (EULER_GAMMA - 0.5)
        sc = abs(s.value - main) * s.T**0.25 / math.sqrt(math.log(s.T))
        scaled.append(sc)
        details.append(f"T/2pi={s.T / TWO_PI:.0f}: value={s.value:.6f} "
                       f"main={main:.6f} scaled={sc:.4f}")
    ok = max(scaled) <= 1.0
    details.append(f"max scaled residual = {max(scaled):.4f} (bound 1.0)")
    return _result(5, "unweighted sigma=1/2 scaled residual bounded", ok, details, t0)


def criterion_6() -> CriterionResult:
    """Laplace scan ratios plus synthetic-input calibration."""
    t0 = time.time()
    details, ok = [], True

    # synthetic calibration isolates interpolation error
    eps0 = 0.05
    stream = laplace.power_law_stream(1.5, laplace.DEFAULT_EPS_TMAX / eps0, step=0.02)
    numeric = laplace.laplace_numeric(0.0, eps0, stream)
    target = eps0 * predictors.exp_poly_integral(1.5, eps0)
    rel = abs(numeric - target) / target
    ok &= rel <= 1.0e-6
    details.append(f"synthetic F=t^1.5 @ eps={eps0}: rel error {rel:.2e} (<= 1e-6)")

    eps_grid = [0.05, 0.02, 0.01]
    for sigma in (0.0, -1.0):
        rows = laplace.laplace_ratio_scan(sigma, eps_grid)
        gaps = [abs(r.ratio - 1.0) for r in rows]
        for r, g in zip(rows, gaps):
            details.append(f"sigma={sigma:+.0f} eps={r.epsilon}: ratio={r.ratio:.4f}"
                           f" |ratio-1|={g:.4f} tail={r.tail_bound:.2e}")
        ok &= gaps[-1] <= 0.15
        monotone = all(b <= a + 1e-12 for a, b in zip(gaps, gaps[1:]))
        if sigma == 0.0:
            ok &= monotone
            details.append(f"sigma=+0 |ratio-1| non-increasing: {monotone}")
        else:
            # limit-claim only: monotonicity recorded, not asserted
            details.append(f"sigma=-1 |ratio-1| non-increasing: {monotone} (recorded)")
    return _result(6, "Laplace scan: |ratio-1| <= 0.15 at eps=0.01, calibration 1e-6",
                   ok, details, t0)


def criterion_7() -> CriterionResult:
    """Bound-infrastructure suites on seeded random and doubling grids."""
    t0 = time.time()
    details, ok = [], True

    checks = bound_checks.random_osc_sweep(1000, seed=20250808)
    worst = max(c.ratio for c in checks)
    ok &= worst <= 1.0
    details.append(f"oscillatory bound: 1000 seeded tuples, max ratio = {worst:.4f} (<= 1)")

    for sigma in (-1.0, -0.5, 0.25, 0.5, 1.0, 2.0):
        worst_scaled = 0.0
        for x in (1.0e3, 1.0e4, 1.0e5, 1.0e6):
            chk = bound_checks.power_sum_check(x, sigma)
            worst_scaled = max(worst_scaled, chk.ratio)
        ok &= worst_scaled <= 2.0
        details.append(f"power-sum sigma={sigma:+.2f}: max scaled residual "
                       f"{worst_scaled:.4f} (<= 2)")

    grids = [(bound_checks.QUOTIENT_KIND, s) for s in (-1.0, -2.0)] + \
            [(bound_checks.PRODUCT_KIND, s) for s in (0.5, 1.0, 2.0)]
    for kind, sigma in grids:
        ratios = [bound_checks.double_sum_growth(float(x), sigma, kind).ratio
                  for x in (250, 500, 1000, 2000)]
        spread = max(ratios) / min(ratios)
        finite = all(math.isfinite(r) for r in ratios)
        ok &= finite and spread <= 5.0
        details.append(f"double-sum {kind} sigma={sigma:+.1f}: ratios "
                       + ", ".join(f"{r:.3f}" for r in ratios)
                       + f" (spread {spread:.2f} <= 5)")
    return _result(7, "bound suites: osc ratio <= 1, residuals bounded", ok, details, t0)


def criterion_8() -> CriterionResult:
    """Evaluator cross-validation sweep and critical-line inequality grid."""
    t0 = time.time()
    details, ok = [], True

    for sigma in (0.0, 0.5, 1.0):
        scaled = {}
        for t in (50.0, 100.0, 200.0, 500.0):
            direct = aux_eval.eval_aux_direct(complex(sigma, t))
            ms = aux_eval.main_sum(sigma, t)
            scaled[t] = abs(direct.value - ms) * t ** (0.5 * sigma)
        early = max(scaled[50.0], scaled[100.0])
        late = max(scaled[200.0], scaled[500.0])
        envelope = aux_eval.MAIN_SUM_ERROR_COEFF * TWO_PI ** (0.5 * sigma)
        good = late <= early and max(scaled.values()) <= envelope
        ok &= good
        details.append(
            f"sigma={sigma}: scaled residuals "
            + ", ".join(f"t={t:.0f}:{v:.3f}" for t, v in scaled.items())
            + f" | late<=early: {late <= early}, envelope {envelope:.2f}")

    worst_gap = math.inf
    n_viol = 0
    for t in np.linspace(10.0, 200.0, 200):
        z, y = aux_eval.critical_line_decomposition(float(t))
        lhs = math.hypot(z, y)
        rhs = abs(complex_zeta(complex(0.5, float(t))).value)
        gap = lhs - rhs
        worst_gap = min(worst_gap, gap)
        if gap < -1.0e-8:
            n_viol += 1
    ok &= n_viol == 0
    details.append(f"critical-line inequality on 200 points in [10,200]: "
                   f"violations={n_viol}, min(2|R| - |zeta|) = {worst_gap:.3e}")
    return _result(8, "contour vs main-sum sweep; 2|R| >= |zeta| - 1e-8",
                   ok, details, t0)


def criterion_9() -> CriterionResult:
    """Byte-identical moment CSV under thread budgets 1 and 8."""
    import tempfile
    from . import cli

    t0 = time.time()
    cfg = RunConfig(sigma_list=(0.0,), T_grid=(TWO_PI * 100.0, TWO_PI * 400.0),
                    weighted=True)
    outputs = []
    with tempfile.TemporaryDirectory() as tmp:
        for threads in (1, 8):
            out_dir = f"{tmp}/t{threads}"
            cli.run("meanvalue", cli.RunContext(
                config=cfg.validate(), out_dir=out_dir, threads=threads, cache=None))
            with open(f"{out_dir}/meanvalue.csv", "rb") as fh:
                outputs.append(fh.read())
    identical = outputs[0] == outputs[1]
    details = [f"CSV bytes identical across thread budgets 1 and 8: {identical}",
               f"rows: {outputs[0].count(bytes([10]))}"]
    return _result(9, "determinism: thread budget does not change output bytes",
                   identical, details, t0)


_CRITERIA = {
    1: criterion_1, 2: criterion_2, 3: criterion_3, 4: criterion_4,
    5: criterion_5, 6: criterion_6, 7: criterion_7, 8: criterion_8,
    9: criterion_9,
}


def run_all(numbers: list[int] | None = None, verbose: bool = True) -> list[CriterionResult]:
    selected = sorted(numbers) if numbers else sorted(_CRITERIA)
    results = []
    for k in selected:
        res = _CRITERIA[k]()
        results.append(res)
        if verbose:
            print(res.line(), flush=True)
    return results
