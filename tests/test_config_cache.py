"""Configuration grammar and evaluation-cache integrity."""

import re
from dataclasses import replace
from pathlib import Path

import pytest

from auxzeta.aux_eval import AuxEval, eval_aux
from auxzeta.cache import FORMAT_TAG, EvalCache
from auxzeta.config import RunConfig, parse_config
from auxzeta.errors import CacheIntegrityError, ConfigError

README = Path(__file__).resolve().parents[1] / "README.md"


class TestConfigParse:
    def test_defaults(self):
        cfg = parse_config("")
        assert cfg == RunConfig()

    def test_full_file(self):
        cfg = parse_config("""
# run setup
sigma_list = 0, 0.5, 1
t_grid = 20, 60
T_grid = 628.3185307179587, 2513.2741228718346
epsilon_grid = 0.05, 0.01
weighted = false
seed = 99
""")
        assert cfg.sigma_list == (0.0, 0.5, 1.0)
        assert cfg.t_grid == (20.0, 60.0)
        assert cfg.T_grid == (628.3185307179587, 2513.2741228718346)
        assert cfg.epsilon_grid == (0.05, 0.01)
        assert cfg.weighted is False
        assert cfg.seed == 99

    def test_readme_example_parses(self):
        # the example under "Config grammar" must stay a valid config file
        text = README.read_text(encoding="utf-8")
        section = text[text.index("### Config grammar"):]
        example = re.search(r"```\n(.*?)```", section, re.S).group(1)
        cfg = parse_config(example)
        assert cfg != RunConfig()

    def test_unknown_key_is_hard_error(self):
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config("sigma_lst = 0")

    @pytest.mark.parametrize("line", ["quad_rel = 1e-9", "t_switch = 500",
                                      "thread_budget = 2", "cache_path = c.txt"])
    def test_removed_key_is_unknown(self, line):
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config(line)

    def test_duplicate_key(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config("seed = 1\nseed = 2")

    def test_bad_value(self):
        with pytest.raises(ConfigError):
            parse_config("seed = fast")
        with pytest.raises(ConfigError):
            parse_config("weighted = maybe")
        with pytest.raises(ConfigError):
            parse_config("t_grid = 10, x")

    def test_grid_ordering_enforced(self):
        with pytest.raises(ConfigError):
            parse_config("T_grid = 100, 50")
        with pytest.raises(ConfigError):
            parse_config("epsilon_grid = 0.01, 0.05")

    @pytest.mark.parametrize("line", ["sigma_list = 0, nan", "t_grid = 1e400",
                                      "T_grid = 100, inf", "epsilon_grid = 0.05, -inf"])
    def test_non_finite_value(self, line):
        with pytest.raises(ConfigError, match="finite"):
            parse_config(line)

    @pytest.mark.parametrize("line,key", [
        ("sigma_list = 0, 25.5", "sigma_list"), ("sigma_list = -400", "sigma_list"),
        ("epsilon_grid = 0.05, 0", "epsilon_grid"), ("epsilon_grid = -0.05", "epsilon_grid"),
        # inside the pole guard of zeta(2 sigma), 0 < |2 sigma - 1| < _POLE_RADIUS
        ("sigma_list = 0.4999999", "sigma_list"), ("sigma_list = 0.5000001", "sigma_list"),
    ])
    def test_out_of_range_value(self, line, key):
        with pytest.raises(ConfigError, match=key):
            parse_config(line)

    def test_sigma_range_edges_accepted(self):
        assert parse_config("sigma_list = -25, 25").sigma_list == (-25.0, 25.0)
        # 1/2 itself, and 1/2 +- 1e-6 just outside the pole guard of zeta(2 sigma)
        cfg = parse_config("sigma_list = 0.499999, 0.5, 0.500001")
        assert cfg.sigma_list == (0.499999, 0.5, 0.500001)

    @pytest.mark.parametrize("value", ["yes", "1", "no", "0"])
    def test_boolean_is_true_or_false_only(self, value):
        with pytest.raises(ConfigError, match="weighted"):
            parse_config(f"weighted = {value}")

    def test_missing_equals(self):
        with pytest.raises(ConfigError, match="key = value"):
            parse_config("just some words")

    def test_overrides_validate(self):
        with pytest.raises(ConfigError):
            replace(RunConfig(), t_grid=(60.0, 20.0))
        with pytest.raises(ConfigError):
            replace(RunConfig(), epsilon_grid=(0.01, 0.05))

    def test_direct_construction_validates(self):
        with pytest.raises(ConfigError, match="sigma_list"):
            RunConfig(sigma_list=(float("nan"),))


# eval_aux at one point per route, keyed by the format tag its records are
# stored under: a change of route or value that leaves FORMAT_TAG as it is
# fails here, and a new tag needs its own pins
ROUTE_PINS = {
    "auxzeta-eval-cache 4: shifted contour by the nested trapezoidal rule to "
    "t = 500, main sum above, phases reduced modulo an extended-precision 2pi": {
        (0.5, 100.0): ("DirectContour", 1.344116302809548 - 0.2999325513831781j,
                       2.3771739798796777e-14),
        (0.5, 1000.0): ("MainSum", 0.5079599941570982 + 0.40109815218030476j,
                        0.42231472670541637),
    },
}


@pytest.mark.parametrize("point", [(0.5, 100.0), (0.5, 1000.0)])
def test_format_tag_pins_each_route(point):
    method, value, bound = ROUTE_PINS[FORMAT_TAG][point]
    got = eval_aux(complex(*point))
    assert got.method == method
    assert abs(got.value - value) <= 1e-12 * abs(value)
    assert 0.5 * bound <= got.error_bound <= 2.0 * bound


def _rec(sigma, t, method="MainSum", value=1.0 + 2.0j, bound=1e-9):
    return AuxEval(complex(sigma, t), value, method, bound)


def _line(rec):
    fields = (rec.s.real, rec.s.imag, rec.method, rec.value.real,
              rec.value.imag, rec.error_bound)
    return "\t".join(f if isinstance(f, str) else repr(f) for f in fields)


class TestEvalCache:
    def test_roundtrip(self, tmp_path):
        path = str(tmp_path / "cache.txt")
        cache = EvalCache(path)
        rec = AuxEval(complex(0.5, 37.251), complex(0.123456789012345678, -4.2e-3),
                      "DirectContour", 1.8476636989922302e-14, 3312)
        cache.insert(rec)
        reloaded = EvalCache(path)
        hit = reloaded.lookup(complex(0.5, 37.251))
        assert hit == replace(rec, n_evals=0)
        assert hit.value.real == rec.value.real  # bit-exact through repr
        assert hit.error_bound == rec.error_bound

    def test_file_layout(self, tmp_path):
        path = tmp_path / "cache.txt"
        rec = _rec(0.5, 37.251, "DirectContour", 0.125 - 0.0042123j, 2.5e-14)
        EvalCache(str(path)).insert(rec)
        assert path.read_text() == (FORMAT_TAG + "\n"
                                    + "0.5\t37.251\tDirectContour\t0.125\t"
                                    "-0.0042123\t2.5e-14\n")

    def test_untagged_file_is_refused(self, tmp_path):
        # a record in the earlier format: key (sigma, t, method, tolerance)
        # and no format tag
        path = tmp_path / "cache.txt"
        path.write_text("0.0\t10.0\tDirectContour\t1e-09\t1.0\t2.0\n")
        with pytest.raises(CacheIntegrityError, match=re.escape(str(path))):
            EvalCache(str(path))

    def test_empty_file_is_new_cache(self, tmp_path):
        path = tmp_path / "cache.txt"
        path.write_text("")
        assert len(EvalCache(str(path))) == 0
        assert path.read_text() == FORMAT_TAG + "\n"

    def test_idempotent_reinsert(self, tmp_path):
        path = str(tmp_path / "cache.txt")
        cache = EvalCache(path)
        rec = _rec(0.0, 10.0)
        cache.insert(rec)
        cache.insert(replace(rec, n_evals=7))
        assert len(EvalCache(path)) == 1

    def test_conflicting_insert_raises(self, tmp_path):
        cache = EvalCache(str(tmp_path / "cache.txt"))
        cache.insert(_rec(0.0, 10.0))
        with pytest.raises(CacheIntegrityError):
            cache.insert(_rec(0.0, 10.0, value=1.0 + 2.5j))
        with pytest.raises(CacheIntegrityError):
            cache.insert(_rec(0.0, 10.0, bound=2e-9))

    def test_conflicting_file_raises(self, tmp_path):
        path = tmp_path / "cache.txt"
        r1 = _rec(0.0, 10.0)
        r2 = _rec(0.0, 10.0, value=9.0 + 2.0j)
        path.write_text(FORMAT_TAG + "\n" + _line(r1) + "\n" + _line(r2) + "\n")
        with pytest.raises(CacheIntegrityError):
            EvalCache(str(path))

    def test_malformed_line(self, tmp_path):
        path = tmp_path / "cache.txt"
        path.write_text(FORMAT_TAG + "\nnot a record\n")
        with pytest.raises(CacheIntegrityError):
            EvalCache(str(path))

    def test_bad_field_is_integrity_error(self, tmp_path):
        path = tmp_path / "cache.txt"
        path.write_text(FORMAT_TAG + "\n0.0\tten\tMainSum\t1.0\t2.0\t1e-09\n")
        with pytest.raises(CacheIntegrityError):
            EvalCache(str(path))

    def test_torn_final_line_is_not_served(self, tmp_path):
        # an append cut short leaves a prefix that still parses as a record
        path = tmp_path / "cache.txt"
        r1 = _rec(0.0, 10.0)
        r2 = _rec(0.5, 37.251, "DirectContour", 0.125 - 0.0042123j, 2.5e-14)
        path.write_text(FORMAT_TAG + "\n" + _line(r1) + "\n" + _line(r2)[:-3])
        cache = EvalCache(str(path))
        assert len(cache) == 1
        assert cache.lookup(r2.s) is None
        assert cache.lookup(r1.s) == r1
        # cut back to the last complete line on opening, with nothing inserted
        assert path.read_text() == FORMAT_TAG + "\n" + _line(r1) + "\n"

    def test_append_after_torn_line_cuts_it_off(self, tmp_path):
        path = tmp_path / "cache.txt"
        r1 = _rec(0.0, 10.0)
        r2 = _rec(0.5, 37.251, "DirectContour", 0.125 - 0.0042123j, 2.5e-14)
        head = FORMAT_TAG + "\n" + _line(r1) + "\n"
        path.write_text(head + _line(r2)[:-3])
        EvalCache(str(path)).insert(r2)
        assert path.read_text() == head + _line(r2) + "\n"
        reloaded = EvalCache(str(path))
        assert len(reloaded) == 2
        assert reloaded.lookup(r2.s) == r2

    def test_torn_tag_is_rewritten(self, tmp_path):
        # the tag's own write, cut short
        path = tmp_path / "cache.txt"
        path.write_text(FORMAT_TAG[:10])
        cache = EvalCache(str(path))
        assert len(cache) == 0
        cache.insert(_rec(0.0, 10.0))
        assert path.read_text() == FORMAT_TAG + "\n" + _line(_rec(0.0, 10.0)) + "\n"
