"""Run configuration: the full determinism contract for a run.

Config files are flat key-value text::

    # comment lines start with '#'; blank lines are ignored
    key = value

Values are parsed by key: float lists are comma-separated, booleans are
``true``/``false``, paths are taken verbatim.  Unknown keys are hard
errors -- a typo must never silently fall back to a default.  Two runs
with equal configurations produce byte-identical result files regardless
of the thread budget.

Recognized keys (all optional, defaults in parentheses):

    sigma_list    floats, comma separated         (0.0)
    t_grid        floats: point-evaluation grid   (empty)
    T_grid        floats: moment upper limits     (empty)
    epsilon_grid  floats, descending              (0.05, 0.02, 0.01)
    weighted      true/false                      (true)
    quad_rel      float: contour tolerance        (1e-9)
    t_switch      float: contour up to this t,    (500.0)
                  truncated sum above
    thread_budget int                             (1)
    cache_path    path                            (unset)
    seed          int                             (20250808)
"""

from __future__ import annotations

from dataclasses import dataclass, fields

from .errors import ConfigError

_FLOAT_LIST_KEYS = {"sigma_list", "t_grid", "T_grid", "epsilon_grid"}
_FLOAT_KEYS = {"quad_rel", "t_switch"}
_INT_KEYS = {"thread_budget", "seed"}
_BOOL_KEYS = {"weighted"}
_STR_KEYS = {"cache_path"}
_ALL_KEYS = _FLOAT_LIST_KEYS | _FLOAT_KEYS | _INT_KEYS | _BOOL_KEYS | _STR_KEYS


@dataclass(frozen=True)
class RunConfig:
    sigma_list: tuple[float, ...] = (0.0,)
    t_grid: tuple[float, ...] = ()
    T_grid: tuple[float, ...] = ()
    epsilon_grid: tuple[float, ...] = (0.05, 0.02, 0.01)
    weighted: bool = True
    quad_rel: float = 1.0e-9
    t_switch: float = 500.0
    thread_budget: int = 1
    cache_path: str | None = None
    seed: int = 20250808

    def validate(self) -> "RunConfig":
        if self.thread_budget < 1:
            raise ConfigError("thread_budget must be >= 1")
        if not self.quad_rel > 0.0:
            raise ConfigError("quad_rel must be positive")
        if self.t_switch < 0.0:
            raise ConfigError("t_switch must be >= 0")
        for name in ("t_grid", "T_grid"):
            grid = getattr(self, name)
            if any(b <= a for a, b in zip(grid, grid[1:])):
                raise ConfigError(f"{name} must be strictly ascending")
        if any(b >= a for a, b in zip(self.epsilon_grid, self.epsilon_grid[1:])):
            raise ConfigError("epsilon_grid must be strictly descending")
        return self


def _parse_value(key: str, raw: str):
    raw = raw.strip()
    try:
        if key in _FLOAT_LIST_KEYS:
            if not raw:
                return ()
            return tuple(float(p) for p in raw.split(","))
        if key in _FLOAT_KEYS:
            return float(raw)
        if key in _INT_KEYS:
            return int(raw)
        if key in _BOOL_KEYS:
            if raw.lower() in ("true", "1", "yes"):
                return True
            if raw.lower() in ("false", "0", "no"):
                return False
            raise ValueError(raw)
        return raw or None
    except ValueError as exc:
        raise ConfigError(f"bad value for {key!r}: {raw!r}") from exc


def parse_config(text: str) -> RunConfig:
    seen: dict[str, object] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, _, raw = stripped.partition("=")
        key = key.strip()
        if key not in _ALL_KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in seen:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        seen[key] = _parse_value(key, raw)
    return RunConfig(**seen).validate()


def load_config(path: str) -> RunConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read())


def config_to_dict(config: RunConfig) -> dict:
    out = {}
    for f in fields(config):
        v = getattr(config, f.name)
        out[f.name] = list(v) if isinstance(v, tuple) else v
    return out
