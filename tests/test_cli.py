"""Command-line surface: schemas, round-trips, cache effect, exit codes."""

import csv
import json
import math
import os
import subprocess
import sys

import pytest

import auxzeta
from auxzeta.aux_eval import eval_aux
from auxzeta.bound_checks import PRODUCT_KIND, QUOTIENT_KIND, double_sum_growth
from auxzeta.cache import FORMAT_TAG
from auxzeta.cli import COMMANDS, main
from auxzeta.mean_value import integrate_mean
from auxzeta.predictors import predict_laplace_unweighted
from auxzeta.special_functions import real_zeta

TWO_PI = 2.0 * math.pi
README = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "README.md")


def _write(path, text):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _read(path):
    with open(path, "rb") as fh:
        return fh.read()


class TestEval:
    def test_cold_then_warm_cache(self, tmp_path):
        cfg = tmp_path / "cfg.txt"
        _write(cfg, "sigma_list = 0\nt_grid = 30, 1000\n")
        cache = str(tmp_path / "cache.txt")
        out1 = tmp_path / "run1"
        out2 = tmp_path / "run2"
        assert main(["eval", "--config", str(cfg), "--out", str(out1),
                     "--cache", cache]) == 0
        assert main(["eval", "--config", str(cfg), "--out", str(out2),
                     "--cache", cache]) == 0
        csv1 = _read(out1 / "eval.csv")
        csv2 = _read(out2 / "eval.csv")
        # identical results apart from the eval-count column
        rows1 = [r.rsplit(",", 1) for r in csv1.decode().splitlines()]
        rows2 = [r.rsplit(",", 1) for r in csv2.decode().splitlines()]
        assert [r[0] for r in rows1] == [r[0] for r in rows2]
        n1 = json.loads(_read(out1 / "eval_manifest.json"))["n_evals"]
        n2 = json.loads(_read(out2 / "eval_manifest.json"))["n_evals"]
        assert n2 < n1
        assert n2 == 0

    def test_rows_equal_eval_aux(self, tmp_path):
        # both routes: the shifted contour (binary64 at t = 20 and 60) and
        # the truncated sum above T_SWITCH
        t_grid = (20.0, 60.0, 1000.0)
        expect = [eval_aux(complex(0.5, t)) for t in t_grid]
        assert [r.method for r in expect] == ["DirectContour", "DirectContour",
                                              "MainSum"]
        cfg = tmp_path / "cfg.txt"
        _write(cfg, f"sigma_list = 0.5\nt_grid = {', '.join(map(repr, t_grid))}\n")
        cache = str(tmp_path / "cache.txt")
        for run in ("cold", "warm"):
            assert main(["eval", "--config", str(cfg), "--out", str(tmp_path / run),
                         "--cache", cache]) == 0
            lines = _read(tmp_path / run / "eval.csv").decode().splitlines()[1:]
            got = [line.split(",") for line in lines]
            want = [["0.5", repr(r.s.imag), r.method, repr(r.value.real),
                     repr(r.value.imag), repr(r.error_bound),
                     str(r.n_evals if run == "cold" else 0)] for r in expect]
            assert got == want
        # the contour rows carry the observed bound, not the tolerance
        assert all(float(g[5]) < 1e-12 for g in got[:2])

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_cache_lines_in_config_order(self, tmp_path, threads):
        # eval runs its points in grid order and appends the misses in that
        # order, so neither the CSV nor the cache file depends on --threads
        cfg = tmp_path / "cfg.txt"
        _write(cfg, "sigma_list = 0.5, 0\nt_grid = 20, 30, 60\n")
        written = []
        for k, budget in enumerate(("1", threads)):
            cache = tmp_path / f"cache{k}.txt"
            assert main(["eval", "--config", str(cfg), "--out", str(tmp_path / str(k)),
                         "--cache", str(cache), "--threads", budget]) == 0
            written.append((_read(tmp_path / str(k) / "eval.csv"), _read(cache)))
        assert written[1] == written[0]
        lines = written[1][1].decode().splitlines()
        assert lines[0] == FORMAT_TAG
        keys = [tuple(float(f) for f in line.split("\t")[:2]) for line in lines[1:]]
        assert keys == [(s, t) for s in (0.5, 0.0) for t in (20.0, 30.0, 60.0)]

    def test_cache_in_earlier_format_is_error(self, tmp_path, capsys):
        # a line of the untagged format keyed (sigma, t, method, tolerance)
        cfg = tmp_path / "cfg.txt"
        _write(cfg, "sigma_list = 0\nt_grid = 30\n")
        cache = tmp_path / "cache.txt"
        _write(cache, "0.0\t30.0\tDirectContour\t1e-09\t0.5\t0.25\n")
        assert main(["eval", "--config", str(cfg), "--out", str(tmp_path / "out"),
                     "--cache", str(cache)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(cache) in err
        assert not os.path.exists(tmp_path / "out" / "eval.csv")
        assert _read(cache) == b"0.0\t30.0\tDirectContour\t1e-09\t0.5\t0.25\n"

    def test_cache_of_previous_route_is_error(self, tmp_path, capsys):
        # a file tagged by the Gauss-Legendre version, whose contour values
        # differ in their last bits from this version's
        cfg = tmp_path / "cfg.txt"
        _write(cfg, "sigma_list = 0\nt_grid = 30\n")
        cache = tmp_path / "cache.txt"
        old = ("auxzeta-eval-cache 2: shifted contour to t = 500, main sum above\n"
               "0.0\t30.0\tDirectContour\t0.5\t0.25\t1e-14\n")
        _write(cache, old)
        assert main(["eval", "--config", str(cfg), "--out", str(tmp_path / "out"),
                     "--cache", str(cache)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(cache) in err
        assert not os.path.exists(tmp_path / "out" / "eval.csv")
        assert _read(cache) == old.encode()

    def test_cache_before_phase_fix_is_error(self, tmp_path, capsys):
        # tag 3 reduced the main sum's phases modulo a binary64 2pi, so its
        # MainSum records and the shifted line's residues are off in their
        # last digits
        cfg = tmp_path / "cfg.txt"
        _write(cfg, "sigma_list = 0.5\nt_grid = 1000\n")
        cache = tmp_path / "cache.txt"
        old = ("auxzeta-eval-cache 3: shifted contour by the nested trapezoidal "
               "rule to t = 500, main sum above\n"
               "0.5\t1000.0\tMainSum\t0.5\t0.25\t0.1\n")
        _write(cache, old)
        assert main(["eval", "--config", str(cfg), "--out", str(tmp_path / "out"),
                     "--cache", str(cache)]) == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert _read(cache) == old.encode()

    def test_schema(self, tmp_path):
        cfg = tmp_path / "cfg.txt"
        _write(cfg, "sigma_list = 0\nt_grid = 30\n")
        assert main(["eval", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        header = _read(tmp_path / "eval.csv").decode().splitlines()[0]
        assert header == "sigma,t,method,value_re,value_im,error_bound,n_evals"


class TestMeanValue:
    def test_empty_grid_header_only(self, tmp_path):
        cfg = tmp_path / "cfg.txt"
        _write(cfg, "sigma_list = 0\nT_grid =\n")
        assert main(["meanvalue", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        content = _read(tmp_path / "meanvalue.csv").decode()
        assert content == ("sigma,T,weighted,value,main_term,residual,"
                           "scaled_residual,quad_error,n_evals\n")

    def test_csv_reemission_is_byte_identical(self, tmp_path):
        cfg = tmp_path / "cfg.txt"
        _write(cfg, f"sigma_list = 0, 0.5\nT_grid = {TWO_PI * 100!r}, {TWO_PI * 300!r}\n")
        assert main(["meanvalue", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        raw = _read(tmp_path / "meanvalue.csv").decode()
        lines = raw.splitlines()
        # parse every numeric field and re-serialize with repr
        out = [lines[0]]
        for line in lines[1:]:
            parts = line.split(",")
            rebuilt = []
            for p in parts:
                if p in ("true", "false"):
                    rebuilt.append(p)
                elif "." in p or "e" in p or "E" in p:
                    rebuilt.append(repr(float(p)))
                else:
                    rebuilt.append(str(int(p)))
            out.append(",".join(rebuilt))
        assert "\n".join(out) + "\n" == raw

    def test_manifest_counts_each_stream_once(self, tmp_path):
        grid = [TWO_PI * x for x in (10.0, 20.0, 40.0)]
        cfg = tmp_path / "cfg.txt"
        _write(cfg, f"sigma_list = 0, 0.5\nT_grid = {', '.join(map(repr, grid))}\n")
        assert main(["meanvalue", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        n = json.loads(_read(tmp_path / "meanvalue_manifest.json"))["n_evals"]
        streams = [integrate_mean(sigma, grid, True)[0].n_evals for sigma in (0.0, 0.5)]
        assert n == sum(streams)

    def test_residual_columns_join_prediction(self, tmp_path):
        cfg = tmp_path / "cfg.txt"
        _write(cfg, f"sigma_list = 0\nT_grid = {TWO_PI * 100!r}\n")
        assert main(["meanvalue", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        row = _read(tmp_path / "meanvalue.csv").decode().splitlines()[1].split(",")
        value, main_term, residual = float(row[3]), float(row[4]), float(row[5])
        assert main_term == pytest.approx((2.0 / 3.0) * 10.0, rel=1e-12)
        assert residual == pytest.approx(value - main_term, abs=1e-15)

    def test_unweighted_three_halves(self, tmp_path):
        # 3 - 2 sigma = 0: the table's zeta row, with no division by zero
        cfg = tmp_path / "cfg.txt"
        _write(cfg, f"sigma_list = 1.5\nT_grid = {TWO_PI * 100!r}\nweighted = false\n")
        assert main(["meanvalue", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        rows = list(csv.DictReader(_read(tmp_path / "meanvalue.csv").decode().splitlines()))
        assert [float(r["main_term"]) for r in rows] == [real_zeta(3.0).value]

    def test_thread_budget_keeps_csv_bytes(self, tmp_path):
        # to 2pi 2e4 each stream folds its large runs on the thread budget's
        # workers, one sigma after the other: the bytes do not move
        grid = [TWO_PI * x for x in (500.0, 1.0e4, 2.0e4)]
        cfg = tmp_path / "cfg.txt"
        _write(cfg, f"sigma_list = 0, 0.5\nT_grid = {', '.join(map(repr, grid))}\n"
                    "weighted = true\n")
        for threads in ("1", "2"):
            assert main(["meanvalue", "--config", str(cfg), "--out", str(tmp_path / threads),
                         "--threads", threads]) == 0
        assert _read(tmp_path / "1" / "meanvalue.csv") == _read(tmp_path / "2" / "meanvalue.csv")


class TestLaplaceCmd:
    def test_rows(self, tmp_path):
        cfg = tmp_path / "cfg.txt"
        _write(cfg, "sigma_list = -1\nepsilon_grid = 0.05\n")
        assert main(["laplace", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        lines = _read(tmp_path / "laplace.csv").decode().splitlines()
        assert lines[0] == "sigma,epsilon,numeric,predicted,ratio,tail_bound"
        assert len(lines) == 2

    def test_manifest_counts_each_stream_once(self, tmp_path):
        # one stream per sigma serves its whole eps grid: to T_max = 60/0.05
        cfg = tmp_path / "cfg.txt"
        _write(cfg, "sigma_list = -1, 0\nepsilon_grid = 0.05, 0.04\n")
        assert main(["laplace", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        n = json.loads(_read(tmp_path / "laplace_manifest.json"))["n_evals"]
        streams = [integrate_mean(sigma, [1200.0], True)[0].n_evals for sigma in (-1.0, 0.0)]
        assert n == sum(streams) > 0

    def test_sigma_below_tail_limit_runs(self, tmp_path):
        # just below 1/2, where the table's zeta(2 sigma) term is large and negative
        cfg = tmp_path / "cfg.txt"
        _write(cfg, "sigma_list = 0.43\n")
        assert main(["laplace", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        assert len(_read(tmp_path / "laplace.csv").decode().splitlines()) == 4

    @pytest.mark.parametrize("weighted", ["true", "false"])
    @pytest.mark.parametrize("sigmas", ["-25", "0, 0.5", "0.45", "0.5", "0.75", "3", "25"])
    def test_every_sigma_runs(self, tmp_path, sigmas, weighted):
        # the reach follows the proven tail bound, so every row holds the
        # tail check on the default eps grid
        cfg = tmp_path / "cfg.txt"
        _write(cfg, f"sigma_list = {sigmas}\nweighted = {weighted}\n")
        assert main(["laplace", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        rows = list(csv.DictReader(_read(tmp_path / "laplace.csv").decode().splitlines()))
        assert len(rows) == 3 * len(sigmas.split(","))
        assert all(float(r["tail_bound"]) <= 1e-15 * float(r["numeric"]) for r in rows)

    def test_unweighted_run_takes_unweighted_table(self, tmp_path):
        # at sigma = -1 the two transforms differ; each row predicts from
        # the table its weight names
        for weighted in ("true", "false"):
            cfg = tmp_path / f"{weighted}.txt"
            _write(cfg, f"sigma_list = -1\nweighted = {weighted}\n")
            assert main(["laplace", "--config", str(cfg), "--out", str(tmp_path / weighted)]) == 0
        unweighted = _read(tmp_path / "false" / "laplace.csv")
        assert unweighted != _read(tmp_path / "true" / "laplace.csv")
        rows = list(csv.DictReader(unweighted.decode().splitlines()))
        assert [float(r["predicted"]) for r in rows] == \
            [predict_laplace_unweighted(-1.0, float(r["epsilon"])) for r in rows]


class TestLemmasCmd:
    def test_schema_and_ratios(self, tmp_path):
        cfg = tmp_path / "cfg.txt"
        _write(cfg, "sigma_list = 1\nseed = 5\n")
        assert main(["lemmas", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        lines = _read(tmp_path / "lemmas.csv").decode().splitlines()
        assert lines[0] == "lemma,inputs,lhs,bound,ratio"
        osc_rows = [l for l in lines[1:] if l.startswith("osc_bound")]
        assert osc_rows and all(float(l.split(",")[-1]) <= 1.0 for l in osc_rows)

    def test_double_sum_rows(self, tmp_path):
        # the 16 double-sum rows close the file in their order, with their
        # labels, each lhs within 2 ulp of its own double_sum_growth call
        cfg = tmp_path / "cfg.txt"
        _write(cfg, "sigma_list = 1\nseed = 5\n")
        assert main(["lemmas", "--config", str(cfg), "--out", str(tmp_path / "a")]) == 0
        text = _read(tmp_path / "a" / "lemmas.csv")
        rows = list(csv.reader(text.decode().splitlines()))
        expect = [(kind, x, sigma)
                  for kind, sigmas in ((QUOTIENT_KIND, (-1.0,)), (PRODUCT_KIND, (0.5, 1.0, 2.0)))
                  for sigma in sigmas for x in (250, 500, 1000, 2000)]
        assert [r[:2] for r in rows[-16:]] == [[kind, f"x={x} sigma={sigma:.6g}"]
                                               for kind, x, sigma in expect]
        assert not any(r[0] in (QUOTIENT_KIND, PRODUCT_KIND) for r in rows[:-16])
        for row, (kind, x, sigma) in zip(rows[-16:], expect):
            want = double_sum_growth(float(x), sigma, kind).lhs
            assert abs(float(row[2]) - want) <= 2.0 * math.ulp(want), row

        # the determinism contract: one BLAS thread writes the same bytes
        src = os.path.dirname(os.path.dirname(os.path.abspath(auxzeta.__file__)))
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        subprocess.run([sys.executable, "-m", "auxzeta.cli", "lemmas", "--config", str(cfg),
                        "--out", str(tmp_path / "b")], env=env, check=True, timeout=300)
        assert _read(tmp_path / "b" / "lemmas.csv") == text


class TestVerifyAndErrors:
    def test_verify_single_criterion(self, tmp_path):
        assert main(["verify", "--out", str(tmp_path), "--criteria", "1"]) == 0
        assert os.path.exists(tmp_path / "verify.csv")
        report = _read(tmp_path / "verify_report.txt").decode()
        assert "criterion 1 [PASS]" in report

    def test_verify_csv_reads_back(self, tmp_path):
        # criterion 6's title contains a comma
        assert main(["verify", "--out", str(tmp_path), "--criteria", "6"]) == 0
        with open(tmp_path / "verify.csv", newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["criterion", "title", "status", "elapsed_s"]
        assert len(rows) == 2 and len(rows[1]) == 4
        assert rows[1][0] == "6" and "," in rows[1][1] and rows[1][2] == "pass"

    def test_unknown_criterion_is_error(self, tmp_path, capsys):
        assert main(["verify", "--out", str(tmp_path), "--criteria", "1,10"]) == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert not os.path.exists(tmp_path / "verify.csv")

    def test_repeated_criterion_runs_once(self, tmp_path):
        assert main(["verify", "--out", str(tmp_path), "--criteria", "6,6"]) == 0
        lines = _read(tmp_path / "verify.csv").decode().splitlines()
        assert len(lines) == 2 and lines[1].startswith("6,")
        report = _read(tmp_path / "verify_report.txt").decode()
        assert report.count("criterion 6 [PASS]") == 1

    def test_every_manifest_records_peak_rss(self, tmp_path):
        configs = {"eval": "sigma_list = 0\nt_grid = 30\n",
                   "meanvalue": "sigma_list = 0\nT_grid = 100\n",
                   "laplace": "sigma_list = 0\nepsilon_grid = 0.05\n",
                   "lemmas": "sigma_list = 0.5\n", "verify": ""}
        for command, text in configs.items():
            cfg = tmp_path / f"{command}.cfg"
            _write(cfg, text)
            argv = [command, "--config", str(cfg), "--out", str(tmp_path)]
            assert main(argv + (["--criteria", "1"] if command == "verify" else [])) == 0
            manifest = json.loads(_read(tmp_path / f"{command}_manifest.json"))
            assert manifest["peak_rss_mb"] > 0.0, command

    def test_criteria_outside_verify_is_error(self, tmp_path, capsys):
        assert main(["eval", "--out", str(tmp_path), "--criteria", "3"]) == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert not os.path.exists(tmp_path / "eval.csv")

    @pytest.mark.parametrize("threads", ["0", "-2"])
    def test_threads_below_one_is_error(self, tmp_path, capsys, threads):
        assert main(["eval", "--out", str(tmp_path), "--threads", threads]) == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert not os.path.exists(tmp_path / "eval.csv")

    def test_cache_outside_eval_is_error(self, tmp_path, capsys):
        cache = tmp_path / "cache.txt"
        assert main(["lemmas", "--out", str(tmp_path), "--cache", str(cache)]) == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert not os.path.exists(cache)

    def test_operational_error_exit_code(self, tmp_path):
        cfg = tmp_path / "bad.txt"
        _write(cfg, "not_a_key = 1\n")
        assert main(["eval", "--config", str(cfg), "--out", str(tmp_path)]) == 1

    def test_overflowing_config_value_is_error(self, tmp_path, capsys):
        cfg = tmp_path / "big.txt"
        _write(cfg, "t_grid = 1e400\n")
        assert main(["eval", "--config", str(cfg), "--out", str(tmp_path)]) == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert not os.path.exists(tmp_path / "eval.csv")

    @pytest.mark.parametrize("command", ["eval", "meanvalue", "laplace", "lemmas", "verify"])
    @pytest.mark.parametrize("key,value", [
        ("sigma_list", "400"), ("sigma_list", "-400"), ("sigma_list", "1e300"),
        ("sigma_list", "0.4999999"), ("sigma_list", "0.5000001"),
        ("epsilon_grid", "-0.05"), ("epsilon_grid", "0"),
    ])
    def test_out_of_range_value_names_its_key(self, tmp_path, capsys, command, key, value):
        # finite values that no command can run: one typed error, before any work
        cfg = tmp_path / "hostile.txt"
        _write(cfg, f"{key} = {value}\nT_grid = 70\n")
        criteria = ["--criteria", "6"] if command == "verify" else []
        assert main([command, "--config", str(cfg), "--out", str(tmp_path)] + criteria) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and key in err
        assert not os.path.exists(tmp_path / f"{command}.csv")

    @pytest.mark.parametrize("command,text,flags,name", [
        ("laplace", "epsilon_grid = 1e-7\n", [], "epsilon_grid"),
        ("laplace", "epsilon_grid = 60\n", [], "epsilon_grid"),
        ("laplace", "epsilon_grid = 1e20\n", [], "epsilon_grid"),
        ("meanvalue", "T_grid = 3\n", [], "T_grid"),
        ("eval", "t_grid = -5\n", [], "t_grid"),
        ("eval", "t_grid = 0, 30\n", [], "t_grid"),
        ("verify", "", ["--criteria", "1,x"], "--criteria"),
        ("verify", "", ["--criteria", "1,10"], "--criteria"),
    ])
    def test_accepted_value_that_cannot_run_names_its_key(self, tmp_path, capsys,
                                                         command, text, flags, name):
        cfg = tmp_path / "cfg.txt"
        _write(cfg, text)
        assert main([command, "--config", str(cfg), "--out", str(tmp_path)] + flags) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and name in err, err
        assert not os.path.exists(tmp_path / f"{command}.csv")

    def test_missing_config_file(self, tmp_path):
        assert main(["eval", "--config", str(tmp_path / "nope.txt"),
                     "--out", str(tmp_path)]) == 1


def test_readme_csv_schemas_match_commands():
    with open(README, encoding="utf-8") as fh:
        text = fh.read()
    block = text[text.index("CSV schemas:"):].split("\n\n")[1]
    assert [line.split() for line in block.splitlines()] == \
        [[f"{name}.csv", header] for name, (_, header) in COMMANDS.items()]
