"""Self-test of the benchmark's own machinery (not of auxzeta).

    python3 bench/selftest.py

Checks that:
  * config generation is a pure function of (workload, seed);
  * on small contour and moments inputs run through the real CLI, every
    output passes its check, and one corrupted row is counted as exactly
    one failed operation;
  * the lemmas check counts one out-of-bound row as exactly one failure;
  * a job that exits non-zero loses every operation it owed;
  * self times from the span sweep split parallel spans without double
    counting.
Exits 0 when every check holds.
"""

from __future__ import annotations

import csv
import math
import os
import shutil
import sys

from run import SRC, WORK, _import_package

failures: list[str] = []


def expect(cond: bool, what: str) -> None:
    print(("ok    " if cond else "FAIL  ") + what)
    if not cond:
        failures.append(what)


def corrupt(path: str, row: int, column: str, fn) -> None:
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    j = rows[0].index(column)
    rows[row + 1][j] = repr(fn(float(rows[row + 1][j])))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for r in rows:
            fh.write(",".join(r) + "\n")


def run_jobs(inputs: dict, out_dir: str) -> dict:
    import workloads
    os.makedirs(out_dir)
    return {label: thunk() for label, thunk in workloads.jobs(inputs, out_dir)}


def test_generation(base: str) -> None:
    import workloads
    for w in workloads.WORKLOADS:
        dirs = [os.path.join(base, f"gen-{w}-{k}") for k in ("a", "b", "c")]
        for d in dirs:
            os.makedirs(d)
        a = workloads.make_inputs(w, 7, dirs[0])
        workloads.make_inputs(w, 7, dirs[1])
        workloads.make_inputs(w, 8, dirs[2])

        def files(d):
            out = {}
            for name in sorted(os.listdir(d)):
                with open(os.path.join(d, name), "rb") as fh:
                    out[name] = fh.read().replace(d.encode(), b"")
            return out
        expect(files(dirs[0]) == files(dirs[1]), f"{w}: seed 7 twice gives equal config bytes")
        expect(files(dirs[0]) != files(dirs[2]), f"{w}: seeds 7 and 8 give different configs")
        expect(len(a["configs"]) >= 1, f"{w}: at least one config file")


def test_contour(base: str) -> None:
    import workloads
    cfg = os.path.join(base, "contour.cfg")
    t_grid = [12.5, 31.0, 600.0]
    with open(cfg, "w", encoding="utf-8") as fh:
        fh.write("sigma_list = 0.0,0.5\nt_grid = 12.5,31.0,600.0\n")
    inputs = {"workload": "contour", "configs": {"eval": cfg},
              "sigmas": [0.0, 0.5], "t_grid": t_grid}
    out = os.path.join(base, "contour")
    results = run_jobs(inputs, out)
    tally = workloads.check_contour(inputs, out, results)
    expect(tally.ops == 12 and tally.failed == 0,
           f"contour: clean outputs pass ({tally.failed} of {tally.ops} failed)")
    corrupt(f"{out}/warm/eval.csv", 4, "value_re", lambda v: v + 1e-3)
    tally = workloads.check_contour(inputs, out, results)
    expect(tally.failed == 1, f"contour: one corrupted warm row is one failure "
                              f"({tally.failed} of {tally.ops})")
    tally = workloads.check_contour(inputs, out, dict(results, eval_warm=1))
    expect(tally.failed == 6 and tally.ops == 12,
           f"contour: a failed warm pass loses its 6 rows ({tally.failed} of {tally.ops})")


def test_moments(base: str) -> None:
    import workloads
    two_pi = 2.0 * math.pi
    w_grid = [two_pi * 100.0, two_pi * 150.0]
    u_grid = [two_pi * 100.0, two_pi * 1000.0]
    cfgs = {}
    for name, body in (
            ("meanvalue_weighted", f"sigma_list = 0.0,0.5\nT_grid = {w_grid[0]!r},"
                                   f"{w_grid[1]!r}\nweighted = true\n"),
            ("meanvalue_unweighted", f"sigma_list = 0.5,2.0\nT_grid = {u_grid[0]!r},"
                                     f"{u_grid[1]!r}\nweighted = false\n"),
            ("laplace", "sigma_list = 0.0,-1.0\nepsilon_grid = 0.05,0.02,0.01\n")):
        cfgs[name] = os.path.join(base, f"{name}.cfg")
        with open(cfgs[name], "w", encoding="utf-8") as fh:
            fh.write(body)
    inputs = {"workload": "moments", "configs": cfgs, "w_grid": w_grid,
              "u_grid": u_grid,
              "points": [{"sigma": 0.5, "weighted": True, "T": two_pi * 100.0}]}
    out = os.path.join(base, "moments")
    results = run_jobs(inputs, out)
    tally = workloads.check_moments(inputs, out, results)
    expect(tally.ops == 15 and tally.failed == 0,
           f"moments: clean outputs pass ({tally.failed} of {tally.ops} failed)")
    corrupt(f"{out}/meanvalue_unweighted/meanvalue.csv", 1, "value",
            lambda v: v * (1.0 + 1e-5))
    tally = workloads.check_moments(inputs, out, results)
    expect(tally.failed == 1, f"moments: one corrupted row is one failure "
                              f"({tally.failed} of {tally.ops})")


def test_lemmas(base: str) -> None:
    import workloads
    out = os.path.join(base, "lemmas")
    os.makedirs(f"{out}/lemmas")
    n = 200 + 4 * len(workloads.LEMMA_SIGMAS) + 16
    lemmas = ["osc_bound"] * 200 + ["power_sum"] * (n - 216) + ["sigma_product"] * 16
    with open(f"{out}/lemmas/lemmas.csv", "w", encoding="utf-8") as fh:
        fh.write("lemma,inputs,lhs,bound,ratio\n")
        for i, lemma in enumerate(lemmas):
            ratio = 1.5 if i == 17 else 0.5
            fh.write(f"{lemma},x={i},{ratio!r},1.0,{ratio!r}\n")
    tally = workloads.check_lemmas({"workload": "lemmas", "power_x": [1.0e3]}, out,
                                   {"lemmas": 0, "power_sums": [0.5]})
    expect(tally.ops == n + 1 and tally.failed == 1,
           f"lemmas: one osc row above its bound is one failure ({tally.failed} of {tally.ops})")


def test_self_times() -> None:
    import spans as tr
    s = []
    for name, start, end, parent, tid in (
            ("cli", 0.0, 10.0, None, 1),
            ("a", 1.0, 5.0, 0, 2),     # two workers overlapping in [3, 5]
            ("b", 3.0, 9.0, 0, 3),
            ("c", 6.0, 7.0, 2, 3)):    # nested under b
        span = tr.Span(name, start, parent, tid, 0, "")
        span.end = end
        s.append(span)
    share = tr.self_times(s, [0, 1, 2, 3])
    expect(abs(sum(share.values()) - 10.0) < 1e-12, "self times add up to the wall time")
    expect(abs(share[1] - 3.0) < 1e-12 and abs(share[2] - 4.0) < 1e-12
           and abs(share[3] - 1.0) < 1e-12 and abs(share[0] - 2.0) < 1e-12,
           f"overlap is split, nesting subtracted: {share}")


def main() -> int:
    _import_package()
    base = os.path.join(WORK, "selftest")
    shutil.rmtree(base, ignore_errors=True)
    os.makedirs(base)
    test_generation(base)
    test_contour(base)
    test_moments(base)
    test_lemmas(base)
    test_self_times()
    print(f"{len(failures)} self-test failure(s); package from {SRC}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
