"""Command-line surface: eval | meanvalue | laplace | lemmas | verify.

Each subcommand reads one flat key-value config file, writes one CSV with
a fixed schema plus a JSON run manifest, and exits 0 on success, 2 when
verification fails, 1 on operational errors.  Floats are serialized with
repr, the shortest decimal that round-trips binary64, so re-parsing and
re-emitting a file reproduces it byte for byte.

`eval` evaluates its grid points in grid order; `meanvalue` and `laplace`
run one stream per sigma in turn, of the moment `weighted` names, each on
the whole thread budget, the one consumer of `--threads`.  Rows are always
emitted in configuration order and every CSV, manifest and cache append is
written by the main thread, so the thread budget never changes their
bytes.  One runner (`run`) serves every command in the `COMMANDS` table.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import resource
import sys
import time
from dataclasses import asdict, dataclass

import numpy as np

from . import __version__, acceptance, bound_checks, laplace, mean_value, predictors
from .aux_eval import eval_aux
from .cache import EvalCache
from .config import RunConfig, load_config
from .errors import AuxZetaError, BudgetExceededError, ConfigError, CoverageError


@dataclass
class RunContext:
    config: RunConfig
    out_dir: str
    threads: int
    cache: EvalCache | None
    criteria: list[int] | None = None  # verify only; None runs all nine


def _write_csv(path: str, header: str, rows: list[list]) -> None:
    # minimal quoting: only a field with a comma, a quote or a newline
    with open(path, "w", encoding="utf-8", newline="") as fh:
        out = csv.writer(fh, lineterminator="\n")
        out.writerow(header.split(","))
        for row in rows:
            out.writerow([("true" if v else "false") if isinstance(v, bool)
                          else repr(v) if isinstance(v, float) else v for v in row])


def _write_manifest(ctx: RunContext, command: str, wall: float,
                    n_evals: int) -> None:
    import mpmath

    manifest = {
        "command": command,
        "config": asdict(ctx.config),
        "threads": ctx.threads,
        "versions": {
            "python": sys.version.split()[0],
            "numpy": np.__version__,
            "mpmath": mpmath.__version__,
            "auxzeta": __version__,
        },
        "wall_time_s": wall,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "n_evals": n_evals,
    }
    with open(f"{ctx.out_dir}/{command}_manifest.json", "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


# ---------------------------------------------------------------------------
# subcommands: each returns (CSV rows, evaluation count, exit code)
# ---------------------------------------------------------------------------

def cmd_eval(ctx: RunContext) -> tuple[list[list], int, int]:
    """Point evaluations of the auxiliary function over sigma x t grids."""
    cfg = ctx.config
    cache = ctx.cache
    points = [complex(sigma, t) for sigma in cfg.sigma_list for t in cfg.t_grid]

    def one(s):
        hit = cache.lookup(s) if cache is not None else None
        return hit if hit is not None else eval_aux(s)

    results = [one(s) for s in points]
    # a hit did no work, a miss always did: store the misses in one append
    # once every point is looked up, so a point named twice in the grid is
    # evaluated, not served, both times
    misses = [r for r in results if r.n_evals]
    if cache is not None and misses:
        cache.insert(*misses)
    rows = [[r.s.real, r.s.imag, r.method, r.value.real, r.value.imag,
             r.error_bound, r.n_evals] for r in results]
    return rows, sum(r.n_evals for r in results), 0


def cmd_meanvalue(ctx: RunContext) -> tuple[list[list], int, int]:
    """Moment values joined with their predicted main terms."""
    cfg = ctx.config
    predict = predictors.predict_weighted if cfg.weighted \
        else predictors.predict_unweighted

    rows, n_evals = [], 0
    for sigma in cfg.sigma_list if cfg.T_grid else []:  # one stream at a time
        pred = predict(sigma)
        samples = mean_value.integrate_mean(sigma, list(cfg.T_grid), cfg.weighted, ctx.threads)
        n_evals += samples[0].n_evals  # each sample carries its whole stream's count
        for s in samples:
            main = pred.evaluate(s.T)
            resid = s.value - main
            rows.append([s.sigma, s.T, s.weighted, s.value, main, resid,
                         resid / pred.residual_scale(s.T), s.quad_error, s.n_evals])
    return rows, n_evals, 0


def cmd_laplace(ctx: RunContext) -> tuple[list[list], int, int]:
    """Transform-ratio scans per sigma over the configured epsilon grid."""
    cfg = ctx.config
    rows, n_evals = [], 0
    for sigma in cfg.sigma_list if cfg.epsilon_grid else []:  # one stream at a time
        try:
            scan = laplace.laplace_ratio_scan(sigma, cfg.epsilon_grid, cfg.weighted, ctx.threads)
        except (BudgetExceededError, CoverageError) as exc:  # the reach the grid needs
            raise ConfigError(f"epsilon_grid {cfg.epsilon_grid} cannot run laplace "
                              f"at sigma {sigma!r}: {exc}") from exc
        n_evals += scan[0].n_evals  # each row carries its whole stream's count
        rows += [[r.sigma, r.epsilon, r.numeric, r.predicted, r.ratio, r.tail_bound]
                 for r in scan]
    return rows, n_evals, 0


def cmd_lemmas(ctx: RunContext) -> tuple[list[list], int, int]:
    """Bound-check tables: oscillatory, power-sum, double-sum suites."""
    cfg = ctx.config
    rows = []
    for chk in bound_checks.random_osc_sweep(200, seed=cfg.seed):
        inp = chk.inputs
        rows.append(["osc_bound",
                     f"a={inp['a']:.6g} b={inp['b']:.6g} "
                     f"alpha={inp['alpha']:.6g} beta={inp['beta']:.6g}",
                     chk.lhs, chk.rhs_bound, chk.ratio])
    for sigma in cfg.sigma_list:
        for x in (1.0e3, 1.0e4, 1.0e5, 1.0e6):
            chk = bound_checks.power_sum_check(x, sigma)
            rows.append(["power_sum", f"x={x:.6g} sigma={sigma:.6g}",
                         chk.lhs, chk.rhs_bound, chk.ratio])
    cases = [(bound_checks.QUOTIENT_KIND, -1.0)] + \
        [(bound_checks.PRODUCT_KIND, sigma) for sigma in (0.5, 1.0, 2.0)]
    table = bound_checks.double_sum_table([250.0, 500.0, 1000.0, 2000.0], cases)
    for (kind, sigma), checks in zip(cases, table):
        for chk in checks:
            rows.append([kind, f"x={chk.inputs['x']:.0f} sigma={sigma:.6g}",
                         chk.lhs, chk.rhs_bound, chk.ratio])
    return rows, 0, 0


def cmd_verify(ctx: RunContext) -> tuple[list[list], int, int]:
    """Full acceptance run; nonzero exit when any criterion fails."""
    results = acceptance.run_all(ctx.criteria)
    rows = [[r.number, r.title, "pass" if r.passed else "fail",
             round(r.elapsed_s, 2)] for r in results]
    with open(f"{ctx.out_dir}/verify_report.txt", "w", encoding="utf-8") as fh:
        for r in results:
            fh.write(r.line() + "\n")
            for d in r.details:
                fh.write(f"    {d}\n")
    n_failed = sum(1 for r in results if not r.passed)
    print(f"{len(results) - n_failed}/{len(results)} criteria passed")
    return rows, 0, 2 if n_failed else 0


# command name -> (subcommand, CSV header); the CSV is <name>.csv
COMMANDS = {
    "eval": (cmd_eval, "sigma,t,method,value_re,value_im,error_bound,n_evals"),
    "meanvalue": (cmd_meanvalue, "sigma,T,weighted,value,main_term,residual,"
                                 "scaled_residual,quad_error,n_evals"),
    "laplace": (cmd_laplace, "sigma,epsilon,numeric,predicted,ratio,tail_bound"),
    "lemmas": (cmd_lemmas, "lemma,inputs,lhs,bound,ratio"),
    "verify": (cmd_verify, "criterion,title,status,elapsed_s"),
}


def run(command: str, ctx: RunContext) -> int:
    """Run one subcommand: create the output directory, write its CSV and
    its manifest with the wall time, and return its exit code."""
    t0 = time.perf_counter()
    os.makedirs(ctx.out_dir, exist_ok=True)
    fn, header = COMMANDS[command]
    rows, n_evals, code = fn(ctx)
    _write_csv(f"{ctx.out_dir}/{command}.csv", header, rows)
    _write_manifest(ctx, command, time.perf_counter() - t0, n_evals)
    return code


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="auxzeta",
        description="Second moments of Riemann's auxiliary function: "
                    "evaluators, decompositions, asymptotic checks.")
    p.add_argument("command", choices=list(COMMANDS))
    p.add_argument("--config", default=None, help="flat key=value config file")
    p.add_argument("--out", default=".", help="output directory")
    p.add_argument("--threads", type=int, default=1,
                   help="thread budget, at least 1 (default: 1): each moment "
                        "stream's own workers in meanvalue and laplace; eval "
                        "accepts it and runs on one thread")
    p.add_argument("--cache", default=None,
                   help="eval only: evaluation cache file")
    p.add_argument("--criteria", default=None,
                   help="verify only: comma-separated criterion numbers")
    return p


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.threads < 1:
            raise ValueError(f"--threads must be at least 1, got {args.threads}")
        if args.cache and args.command != "eval":
            raise ValueError("--cache applies to eval only")
        if args.criteria and args.command != "verify":
            raise ValueError("--criteria applies to verify only")
        cfg = load_config(args.config) if args.config else RunConfig()
        # each named criterion runs once, however often it is named
        names = {x.strip() for x in args.criteria.split(",")} if args.criteria else set()
        if not names <= {str(n) for n in acceptance.CRITERIA}:
            raise ValueError(f"--criteria takes criterion numbers {min(acceptance.CRITERIA)}-"
                             f"{max(acceptance.CRITERIA)}, got {args.criteria!r}")
        criteria = sorted(int(x) for x in names) or None
        ctx = RunContext(config=cfg, out_dir=args.out, threads=args.threads,
                         cache=EvalCache(args.cache) if args.cache else None,
                         criteria=criteria)
        return run(args.command, ctx)
    except (AuxZetaError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
