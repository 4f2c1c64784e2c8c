"""Run configuration: the full determinism contract for a run.

Config files are flat key-value text::

    # comment lines start with '#'; blank lines are ignored
    key = value

Values are parsed by key: float lists are comma-separated finite numbers,
the boolean is ``true`` or ``false``.  Unknown keys are hard errors -- a
typo must never silently fall back to a default.  A ``RunConfig`` checks
itself when built, however it is built.  Two runs with equal configurations
produce byte-identical result files regardless of the thread budget.

Recognized keys (all optional, defaults in parentheses):

    sigma_list    floats in [-25, 25], not within (0.0)
                  5e-7 of 1/2 unless 1/2 itself
    t_grid        positive floats: point grid     (empty)
    T_grid        floats >= 2 pi: moment limits   (empty)
    epsilon_grid  positive floats, descending     (0.05, 0.02, 0.01)
    weighted      true/false                      (true)
    seed          int                             (20250808)

The thread budget and the cache file are command-line options
(``--threads``, ``--cache``); the contour tolerance and the switch to the
truncated sum are the constants ``aux_eval.QUAD_REL`` and
``aux_eval.T_SWITCH``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ConfigError
from .special_functions import _POLE_RADIUS

# every command runs every sigma in this range: `lemmas` forms x^{-2 sigma}
# up to x = 1e6, which leaves binary64 from |sigma| = 25.7 (the stream's
# weight (t/2pi)^sigma leaves it near |sigma| = 48 at the pair budget)
_SIGMA_LIMIT = 25.0
# float-list key -> the finite values its consumers run (sigma: also outside
# the pole guard of zeta(2 sigma), which `meanvalue` and `lemmas` take)
_FLOAT_LIST_RULES = {
    "sigma_list": (f"in [-{_SIGMA_LIMIT:g}, {_SIGMA_LIMIT:g}], not within "
                   f"{_POLE_RADIUS / 2.0:.1g} of 1/2 unless 1/2 itself",
                   lambda v: abs(v) <= _SIGMA_LIMIT
                   and not 0.0 < abs(2.0 * v - 1.0) < _POLE_RADIUS),
    "t_grid": ("positive", lambda v: v > 0.0),
    "T_grid": ("at least 2*pi", lambda v: v >= 2.0 * math.pi),
    "epsilon_grid": ("positive", lambda v: v > 0.0),
}
_ALL_KEYS = set(_FLOAT_LIST_RULES) | {"weighted", "seed"}


@dataclass(frozen=True)
class RunConfig:
    sigma_list: tuple[float, ...] = (0.0,)
    t_grid: tuple[float, ...] = ()
    T_grid: tuple[float, ...] = ()
    epsilon_grid: tuple[float, ...] = (0.05, 0.02, 0.01)
    weighted: bool = True
    seed: int = 20250808

    def __post_init__(self):
        for name, (rule, ok) in _FLOAT_LIST_RULES.items():
            grid = getattr(self, name)
            if not all(math.isfinite(v) and ok(v) for v in grid):
                raise ConfigError(f"{name} values must be finite and {rule}, got {grid}")
        for name, order in (("t_grid", "ascending"), ("T_grid", "ascending"),
                            ("epsilon_grid", "descending")):
            grid = getattr(self, name)
            if list(grid) != sorted(set(grid), reverse=order == "descending"):
                raise ConfigError(f"{name} must be strictly {order}")


def _parse_value(key: str, raw: str):
    raw = raw.strip()
    try:
        if key in _FLOAT_LIST_RULES:
            if not raw:
                return ()
            return tuple(float(p) for p in raw.split(","))
        if key == "seed":
            return int(raw)
        # weighted, the one boolean key
        return {"true": True, "false": False}[raw.lower()]
    except (KeyError, ValueError) as exc:
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
    return RunConfig(**seen)


def load_config(path: str) -> RunConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read())
