"""Configuration grammar and evaluation-cache integrity."""

from dataclasses import replace

import pytest

from auxzeta.cache import CacheRecord, EvalCache
from auxzeta.config import RunConfig, parse_config
from auxzeta.errors import CacheIntegrityError, ConfigError


class TestConfigParse:
    def test_defaults(self):
        cfg = parse_config("")
        assert cfg == RunConfig()

    def test_full_file(self):
        cfg = parse_config("""
# run setup
sigma_list = 0, 0.5, 1
T_grid = 628.3185307179587, 2513.2741228718346
weighted = false
quad_rel = 1e-10
t_switch = 250
thread_budget = 4
cache_path = /tmp/cache.txt
seed = 99
""")
        assert cfg.sigma_list == (0.0, 0.5, 1.0)
        assert cfg.weighted is False
        assert cfg.quad_rel == 1e-10
        assert cfg.t_switch == 250.0
        assert cfg.thread_budget == 4
        assert cfg.cache_path == "/tmp/cache.txt"
        assert cfg.seed == 99

    def test_unknown_key_is_hard_error(self):
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config("sigma_lst = 0")

    def test_duplicate_key(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config("seed = 1\nseed = 2")

    def test_bad_value(self):
        with pytest.raises(ConfigError):
            parse_config("quad_rel = fast")
        with pytest.raises(ConfigError):
            parse_config("weighted = maybe")

    def test_grid_ordering_enforced(self):
        with pytest.raises(ConfigError):
            parse_config("T_grid = 100, 50")
        with pytest.raises(ConfigError):
            parse_config("epsilon_grid = 0.01, 0.05")

    def test_missing_equals(self):
        with pytest.raises(ConfigError, match="key = value"):
            parse_config("just some words")

    def test_overrides_validate(self):
        with pytest.raises(ConfigError):
            replace(RunConfig(), thread_budget=0).validate()
        with pytest.raises(ConfigError):
            parse_config("thread_budget = 0")


class TestEvalCache:
    def test_roundtrip(self, tmp_path):
        path = str(tmp_path / "cache.txt")
        cache = EvalCache(path)
        rec = CacheRecord(0.5, 37.251, "DirectContour", 1e-9,
                          0.123456789012345678, -4.2e-3)
        cache.insert(rec)
        reloaded = EvalCache(path)
        hit = reloaded.lookup(0.5, 37.251, "DirectContour", 1e-9)
        assert hit == rec
        assert hit.value_re == rec.value_re  # bit-exact through repr

    def test_idempotent_reinsert(self, tmp_path):
        path = str(tmp_path / "cache.txt")
        cache = EvalCache(path)
        rec = CacheRecord(0.0, 10.0, "MainSum", 1e-9, 1.0, 2.0)
        cache.insert(rec)
        cache.insert(rec)
        assert len(EvalCache(path)) == 1

    def test_conflicting_insert_raises(self, tmp_path):
        cache = EvalCache(str(tmp_path / "cache.txt"))
        cache.insert(CacheRecord(0.0, 10.0, "MainSum", 1e-9, 1.0, 2.0))
        with pytest.raises(CacheIntegrityError):
            cache.insert(CacheRecord(0.0, 10.0, "MainSum", 1e-9, 1.0, 2.5))

    def test_conflicting_file_raises(self, tmp_path):
        path = tmp_path / "cache.txt"
        r1 = CacheRecord(0.0, 10.0, "MainSum", 1e-9, 1.0, 2.0)
        r2 = CacheRecord(0.0, 10.0, "MainSum", 1e-9, 9.0, 2.0)
        path.write_text(r1.to_line() + "\n" + r2.to_line() + "\n")
        with pytest.raises(CacheIntegrityError):
            EvalCache(str(path))

    def test_malformed_line(self, tmp_path):
        path = tmp_path / "cache.txt"
        path.write_text("not a record\n")
        with pytest.raises(CacheIntegrityError):
            EvalCache(str(path))

    def test_memory_only(self):
        cache = EvalCache(None)
        rec = CacheRecord(0.0, 10.0, "MainSum", 1e-9, 1.0, 2.0)
        cache.insert(rec)
        assert cache.lookup(0.0, 10.0, "MainSum", 1e-9) == rec

    def test_bad_field_is_integrity_error(self, tmp_path):
        path = tmp_path / "cache.txt"
        path.write_text("0.0\tten\tMainSum\t1e-09\t1.0\t2.0\n")
        with pytest.raises(CacheIntegrityError):
            EvalCache(str(path))

    def test_torn_final_line_is_not_served(self, tmp_path):
        # an append cut short leaves a prefix that still parses as a record
        path = tmp_path / "cache.txt"
        r1 = CacheRecord(0.0, 10.0, "MainSum", 1e-9, 1.0, 2.0)
        r2 = CacheRecord(0.5, 37.251, "DirectContour", 1e-9, 0.125, -0.0042123)
        path.write_text(r1.to_line() + "\n" + r2.to_line()[:-3])
        cache = EvalCache(str(path))
        assert len(cache) == 1
        assert cache.lookup(0.5, 37.251, "DirectContour", 1e-9) is None
        assert cache.lookup(0.0, 10.0, "MainSum", 1e-9) == r1

    def test_append_after_torn_line_cuts_it_off(self, tmp_path):
        path = tmp_path / "cache.txt"
        r1 = CacheRecord(0.0, 10.0, "MainSum", 1e-9, 1.0, 2.0)
        r2 = CacheRecord(0.5, 37.251, "DirectContour", 1e-9, 0.125, -0.0042123)
        path.write_text(r1.to_line() + "\n" + r2.to_line()[:-3])
        EvalCache(str(path)).insert(r2)
        assert path.read_text() == r1.to_line() + "\n" + r2.to_line() + "\n"
        reloaded = EvalCache(str(path))
        assert len(reloaded) == 2
        assert reloaded.lookup(0.5, 37.251, "DirectContour", 1e-9) == r2
