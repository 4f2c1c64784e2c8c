"""The three benchmark workloads: seeded inputs, job sequence, output checks.

Each workload is a closed loop: one job after another from one process.
Its inputs are a pure function of (workload, seed), written as auxzeta
config files, so the same seed gives the same config bytes.  Seeds move
every input point but the weighted decomposition points, and the points
that set the cost (the mp-route t values and the stream reach T_max) are
jittered by at most 2% around fixed centres, so a run's cost does not
depend on which seed it drew.

Checks use the acceptance gate's fixed tolerances and run outside the
timed region.  Every checked row or call is one operation; a job that
raises or exits non-zero fails all the operations it owed.
"""

from __future__ import annotations

import csv
import json
import math
import os
import random

TWO_PI = 2.0 * math.pi
THREADS = 2  # the CLI thread budget; equals nproc on the reference machine

# contour: t_switch stays at its default (500), quad_rel at 1e-9
CONTOUR_SIGMAS = (0.0, 0.5, 1.0)
F64_T_RANGE = (10.0, 34.0)       # binary64 route for every sigma below t ~ 34.8
MP_T_CENTRES = (60.0,)           # mp route at 40 digits, Gauss order 48
MAIN_SUM_T_RANGE = (500.0, 1.0e5)
JITTER = 0.02

LAPLACE_EPS = (0.05, 0.02, 0.01)
# sigma = 2 would put an mp power sum over 1e6 terms (11-14 s) into every
# lemmas call; its mp branch runs instead as direct calls at x ~ 1e4 and 1e5,
# so that a round stays short enough to repeat many times in one run.
LEMMA_SIGMAS = (-1.0, 0.25, 0.5, 1.0)
POWER_SUM_MP_SIGMA = 2.0
POWER_SUM_MP_X = (1.0e4, 1.0e5)
# The gate checks unweighted sigma=2 against 10/T only on its own grid; the
# 1/T constant of that residual is about 2*pi*zeta(2) = 10.3, so 10/T does not
# hold at every T.  Those grid points are always in the unweighted grid.
GATE_SIGMA2_T = (TWO_PI * 1.0e3, TWO_PI * 2.0e3)
# The weighted decomposition points are the same for every seed.  Their
# cross terms are hundreds of per-pair osc_integral calls.  For sigma > 0 a
# few of those stop on roundoff, not on convergence: at sigma = 1 and
# T ~ 2pi*1000 the number of step doublings jumps between 2 and 6 (up to 1e6
# nodes in one call) between T values 0.5% apart, and the pattern depends on
# the CPU's libm.  Drawn per seed, these points moved a run's time and its
# peak RSS (by ~390 MB on one host) with the seed.  Fixed, each run does the
# same calls: the long ones at sigma = 0 (two doublings for every pair), the
# roundoff-limited ones at sigma = 2 on the shorter range.
WEIGHTED_POINTS = (
    {"sigma": 0.0, "weighted": True, "T": TWO_PI * 1000.0},
    {"sigma": 2.0, "weighted": True, "T": TWO_PI * 400.0},
)

WORKLOADS = ("contour", "moments", "lemmas")


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"auxzeta-bench:{workload}:{seed}")


def _jitter(rng: random.Random, centre: float) -> float:
    return centre * math.exp(rng.uniform(-JITTER, JITTER))


def _stratified(rng: random.Random, lo: float, hi: float, n: int,
                log: bool = False) -> list[float]:
    """One point per equal-width stratum of [lo, hi] (log scale if asked),
    never at the lower edge."""
    a, b = (math.log(lo), math.log(hi)) if log else (lo, hi)
    out = []
    for k in range(n):
        u = 1.0 - rng.random()  # (0, 1]
        x = a + (k + u) * (b - a) / n
        out.append(math.exp(x) if log else x)
    return out


def _floats(values) -> str:
    return ",".join(repr(float(v)) for v in values)


def _write(path: str, lines: list[str]) -> str:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
    return path


def make_inputs(workload: str, seed: int, work_dir: str) -> dict:
    """Write the workload's config files into `work_dir`; return their paths
    and the expected shape of the outputs."""
    rng = _rng(workload, seed)
    header = [f"# auxzeta benchmark workload {workload}, seed {seed}"]
    if workload == "contour":
        t_grid = sorted(
            [round(t, 6) for t in _stratified(rng, *F64_T_RANGE, 40)]
            + [round(_jitter(rng, c), 6) for c in MP_T_CENTRES]
            + [round(t, 3) for t in _stratified(rng, *MAIN_SUM_T_RANGE, 20, log=True)])
        cfg = _write(f"{work_dir}/contour.cfg", header + [
            f"sigma_list = {_floats(CONTOUR_SIGMAS)}",
            f"t_grid = {_floats(t_grid)}",
        ])
        return {"workload": workload, "configs": {"eval": cfg},
                "sigmas": list(CONTOUR_SIGMAS), "t_grid": t_grid}
    if workload == "moments":
        w_grid = sorted([round(T, 6) for T in _stratified(
            rng, TWO_PI * 250.0, TWO_PI * 1600.0, 5, log=True)]
            + [round(_jitter(rng, TWO_PI * 2000.0), 6)])
        u_grid = sorted([round(T, 6) for T in
                         _stratified(rng, TWO_PI * 200.0, TWO_PI * 900.0, 2, log=True)
                         + _stratified(rng, TWO_PI * 1100.0, TWO_PI * 1900.0, 2, log=True)]
                        + list(GATE_SIGMA2_T))
        points = [dict(p) for p in WEIGHTED_POINTS] + [
            {"sigma": rng.choice([0.0, 0.5, 1.0]), "weighted": False,
             "T": round(_jitter(rng, TWO_PI * 1000.0), 6)},
            {"sigma": rng.choice([-1.0, 0.25, 2.0]), "weighted": False,
             "T": round(_jitter(rng, TWO_PI * 400.0), 6)},
        ]
        cfgs = {
            "meanvalue_weighted": _write(f"{work_dir}/meanvalue_weighted.cfg", header + [
                "sigma_list = 0.0,0.5", f"T_grid = {_floats(w_grid)}",
                "weighted = true"]),
            "meanvalue_unweighted": _write(f"{work_dir}/meanvalue_unweighted.cfg", header + [
                "sigma_list = 0.5,2.0", f"T_grid = {_floats(u_grid)}",
                "weighted = false"]),
            "laplace": _write(f"{work_dir}/laplace.cfg", header + [
                "sigma_list = 0.0,-1.0", f"epsilon_grid = {_floats(LAPLACE_EPS)}"]),
        }
        with open(f"{work_dir}/decomposition.json", "w", encoding="utf-8") as fh:
            json.dump(points, fh, indent=1, sort_keys=True)
            fh.write("\n")
        return {"workload": workload, "configs": cfgs, "w_grid": w_grid,
                "u_grid": u_grid, "points": points}
    if workload == "lemmas":
        cfg = _write(f"{work_dir}/lemmas.cfg", header + [
            f"sigma_list = {_floats(LEMMA_SIGMAS)}", f"seed = {seed}"])
        xs = [round(_jitter(rng, x), 3) for x in POWER_SUM_MP_X]
        with open(f"{work_dir}/power_sums.json", "w", encoding="utf-8") as fh:
            json.dump({"sigma": POWER_SUM_MP_SIGMA, "x": xs}, fh, sort_keys=True)
            fh.write("\n")
        return {"workload": workload, "configs": {"lemmas": cfg}, "power_x": xs}
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------------
# job sequence
# ---------------------------------------------------------------------------

def jobs(inputs: dict, out_dir: str) -> list[tuple[str, object]]:
    """(label, thunk) pairs for one round; each thunk returns the CLI exit
    code (0 on success) or the values of a direct call."""
    import auxzeta.cli
    from auxzeta import bound_checks, mean_value

    def cli(*argv):
        return lambda: auxzeta.cli.main([*argv, "--threads", str(THREADS)])

    cfg = inputs["configs"]
    if inputs["workload"] == "contour":
        cache = f"{out_dir}/eval_cache.tsv"
        return [
            ("eval_cold", cli("eval", "--config", cfg["eval"], "--out",
                              f"{out_dir}/cold", "--cache", cache)),
            ("eval_warm", cli("eval", "--config", cfg["eval"], "--out",
                              f"{out_dir}/warm", "--cache", cache)),
        ]
    if inputs["workload"] == "moments":
        def decomposition():
            return [mean_value.decomposition_check(p["sigma"], p["T"], p["weighted"])
                    for p in inputs["points"]]
        return [(name, cli("meanvalue" if name.startswith("meanvalue") else "laplace",
                           "--config", cfg[name], "--out", f"{out_dir}/{name}"))
                for name in ("meanvalue_weighted", "meanvalue_unweighted", "laplace")
                ] + [("decomposition", decomposition)]
    def power_sums():
        return [bound_checks.power_sum_check(x, POWER_SUM_MP_SIGMA).ratio
                for x in inputs["power_x"]]
    return [("lemmas", cli("lemmas", "--config", cfg["lemmas"], "--out",
                           f"{out_dir}/lemmas")),
            ("power_sums", power_sums)]


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------

def _read_csv(path: str) -> list[dict]:
    with open(path, "r", encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


class Tally:
    """Operations attempted and failed, with a note for each failure."""

    def __init__(self):
        self.ops = 0
        self.failed = 0
        self.notes: list[str] = []

    def check(self, ok: bool, what: str) -> None:
        self.ops += 1
        if not ok:
            self.failed += 1
            self.notes.append(what)

    def lost(self, n: int, what: str) -> None:
        self.ops += n
        self.failed += n
        self.notes.append(f"{what}: {n} operations lost")


def _rows_or_lost(tally: Tally, results: dict, label: str, path: str,
                  expected: int) -> list[dict]:
    """The job's CSV rows if it succeeded with the expected row count;
    otherwise every owed operation is counted as failed."""
    if results.get(label) != 0:
        tally.lost(expected, f"{label} returned {results.get(label)!r}")
        return []
    rows = _read_csv(path)
    if len(rows) != expected:
        tally.lost(expected, f"{label}: {len(rows)} rows, expected {expected}")
        return []
    return rows


def _contour_row_ok(row: dict) -> bool:
    from auxzeta.aux_eval import (MAIN_SUM_ERROR_COEFF, MAIN_SUM_METHOD,
                                  main_sum)
    from auxzeta.special_functions import complex_zeta

    sigma, t = float(row["sigma"]), float(row["t"])
    value = complex(float(row["value_re"]), float(row["value_im"]))
    if not (math.isfinite(value.real) and math.isfinite(value.imag)):
        return False
    expect_method = MAIN_SUM_METHOD if t > 500.0 else "DirectContour"
    if row["method"] != expect_method:
        return False
    ms = main_sum(sigma, t)
    if row["method"] == MAIN_SUM_METHOD:
        return value == ms
    if t >= 30.0:
        envelope = MAIN_SUM_ERROR_COEFF * TWO_PI ** (0.5 * sigma) * t ** (-0.5 * sigma)
        if not abs(value - ms) <= envelope:
            return False
    if sigma == 0.5:
        zeta = abs(complex_zeta(complex(0.5, t)).value)
        if not 2.0 * abs(value) >= zeta - 1.0e-8:
            return False
    return True


def _split_lines(path: str) -> list[list[str]]:
    with open(path, "r", encoding="utf-8", newline="") as fh:
        return [line.rstrip("\n").split(",") for line in fh]


def check_contour(inputs: dict, out_dir: str, results: dict) -> Tally:
    tally = Tally()
    n = len(inputs["sigmas"]) * len(inputs["t_grid"])
    cold = _rows_or_lost(tally, results, "eval_cold", f"{out_dir}/cold/eval.csv", n)
    for i, row in enumerate(cold):
        expect = (inputs["sigmas"][i // len(inputs["t_grid"])],
                  inputs["t_grid"][i % len(inputs["t_grid"])])
        ok = (float(row["sigma"]), float(row["t"])) == expect and _contour_row_ok(row)
        tally.check(ok, f"eval_cold row {i}: {row}")
    warm = _rows_or_lost(tally, results, "eval_warm", f"{out_dir}/warm/eval.csv", n)
    if warm:
        # Cache hits report n_evals = 0, so the warm file equals the cold one
        # byte for byte in every column but the last, which must be 0.
        cold_lines = _split_lines(f"{out_dir}/cold/eval.csv")
        warm_lines = _split_lines(f"{out_dir}/warm/eval.csv")
        with open(f"{out_dir}/warm/eval_manifest.json", encoding="utf-8") as fh:
            manifest_evals = json.load(fh)["n_evals"]
        for i in range(n):
            c = cold_lines[i + 1] if cold else None
            w = warm_lines[i + 1]
            ok = (manifest_evals == 0 and w[-1] == "0"
                  and c is not None and c[:-1] == w[:-1])
            tally.check(ok, f"eval_warm row {i}: {w}")
    return tally


def _finite(*xs) -> bool:
    return all(math.isfinite(x) for x in xs)


def check_moments(inputs: dict, out_dir: str, results: dict) -> Tally:
    from auxzeta import mean_value

    tally = Tally()
    rows = _rows_or_lost(tally, results, "meanvalue_weighted",
                         f"{out_dir}/meanvalue_weighted/meanvalue.csv",
                         2 * len(inputs["w_grid"]))
    for i, row in enumerate(rows):
        sigma, T, value = float(row["sigma"]), float(row["T"]), float(row["value"])
        ok = _finite(value, float(row["residual"])) and value > 0.0
        if sigma == 0.0:  # criterion 2's bound on the scaled residual
            main = (2.0 / 3.0) * math.sqrt(T / TWO_PI)
            ok = ok and abs(value - main) * T ** -0.25 <= 1.0
        tally.check(ok, f"meanvalue_weighted row {i}: {row}")

    rows = _rows_or_lost(tally, results, "meanvalue_unweighted",
                         f"{out_dir}/meanvalue_unweighted/meanvalue.csv",
                         2 * len(inputs["u_grid"]))
    for i, row in enumerate(rows):
        sigma, T, value = float(row["sigma"]), float(row["T"]), float(row["value"])
        # every streamed value against the independent exact split
        diag = mean_value.diagonal_closed_form(sigma, T, False)
        cross = mean_value.cross_term_value(sigma, T, False)
        ok = (_finite(value)
              and abs(value * T - (diag + cross)) / (diag + abs(cross)) <= 1.0e-6)
        if sigma == 2.0 and T in GATE_SIGMA2_T:  # criterion 4
            ok = ok and abs(value - math.pi ** 4 / 90.0) <= 10.0 / T
        tally.check(ok, f"meanvalue_unweighted row {i}: {row}")

    rows = _rows_or_lost(tally, results, "laplace", f"{out_dir}/laplace/laplace.csv",
                         2 * len(LAPLACE_EPS))
    for i, row in enumerate(rows):
        eps, ratio = float(row["epsilon"]), float(row["ratio"])
        numeric, tail = float(row["numeric"]), float(row["tail_bound"])
        ok = _finite(ratio, numeric, tail) and tail <= 1.0e-15 * numeric
        if eps == 0.01:  # criterion 6
            ok = ok and abs(ratio - 1.0) <= 0.15
        tally.check(ok, f"laplace row {i}: {row}")

    disc = results.get("decomposition")
    if not isinstance(disc, list):
        tally.lost(len(inputs["points"]), f"decomposition returned {disc!r}")
    else:
        for p, d in zip(inputs["points"], disc):  # criterion 1
            tally.check(math.isfinite(d) and d <= 1.0e-6, f"decomposition {p}: {d}")
    return tally


def check_lemmas(inputs: dict, out_dir: str, results: dict) -> Tally:
    tally = Tally()
    expected = 200 + 4 * len(LEMMA_SIGMAS) + 4 * 4
    rows = _rows_or_lost(tally, results, "lemmas", f"{out_dir}/lemmas/lemmas.csv",
                         expected)
    for i, row in enumerate(rows):
        ratio = float(row["ratio"])
        if row["lemma"] == "osc_bound":
            ok = ratio <= 1.0
        elif row["lemma"] == "power_sum":
            ok = ratio <= 2.0
        else:
            ok = math.isfinite(ratio)
        tally.check(ok and math.isfinite(ratio), f"lemmas row {i}: {row}")
    ratios = results.get("power_sums")
    if not isinstance(ratios, list):
        tally.lost(len(inputs["power_x"]), f"power_sums returned {ratios!r}")
    else:
        for x, ratio in zip(inputs["power_x"], ratios):  # criterion 7
            tally.check(math.isfinite(ratio) and ratio <= 2.0,
                        f"power_sum_check({x}, {POWER_SUM_MP_SIGMA}): {ratio}")
    return tally


CHECKS = {"contour": check_contour, "moments": check_moments,
          "lemmas": check_lemmas}


def data_rows(out_dir: str) -> int:
    """Data rows in every CSV the round's CLI jobs wrote."""
    n = 0
    for dirpath, _, files in os.walk(out_dir):
        for f in files:
            if f.endswith(".csv"):
                with open(os.path.join(dirpath, f), encoding="utf-8") as fh:
                    n += sum(1 for _ in fh) - 1
    return n
