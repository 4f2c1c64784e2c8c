"""Command-line surface: schemas, round-trips, cache effect, exit codes."""

import json
import math
import os

import pytest

from auxzeta.aux_eval import eval_aux
from auxzeta.cli import main
from auxzeta.mean_value import integrate_mean

TWO_PI = 2.0 * math.pi


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
        # one t per route: binary64 contour, mp contour, truncated sum
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
            want = [[r.method, repr(r.value.real), repr(r.value.imag),
                     str(r.n_evals if run == "cold" else 0)] for r in expect]
            assert [g[2:5] + g[6:] for g in got] == want

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


class TestLaplaceCmd:
    def test_rows(self, tmp_path):
        cfg = tmp_path / "cfg.txt"
        _write(cfg, "sigma_list = -1\nepsilon_grid = 0.05\n")
        assert main(["laplace", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        lines = _read(tmp_path / "laplace.csv").decode().splitlines()
        assert lines[0] == "sigma,epsilon,numeric,predicted,ratio,tail_bound"
        assert len(lines) == 2


class TestLemmasCmd:
    def test_schema_and_ratios(self, tmp_path):
        cfg = tmp_path / "cfg.txt"
        _write(cfg, "sigma_list = 1\nseed = 5\n")
        assert main(["lemmas", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        lines = _read(tmp_path / "lemmas.csv").decode().splitlines()
        assert lines[0] == "lemma,inputs,lhs,bound,ratio"
        osc_rows = [l for l in lines[1:] if l.startswith("osc_bound")]
        assert osc_rows and all(float(l.split(",")[-1]) <= 1.0 for l in osc_rows)


class TestVerifyAndErrors:
    def test_verify_single_criterion(self, tmp_path):
        assert main(["verify", "--out", str(tmp_path), "--criteria", "1"]) == 0
        assert os.path.exists(tmp_path / "verify.csv")
        report = _read(tmp_path / "verify_report.txt").decode()
        assert "criterion 1 [PASS]" in report

    def test_operational_error_exit_code(self, tmp_path):
        cfg = tmp_path / "bad.txt"
        _write(cfg, "not_a_key = 1\n")
        assert main(["eval", "--config", str(cfg), "--out", str(tmp_path)]) == 1

    def test_missing_config_file(self, tmp_path):
        assert main(["eval", "--config", str(tmp_path / "nope.txt"),
                     "--out", str(tmp_path)]) == 1
