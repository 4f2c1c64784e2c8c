"""The traced benchmark's span tracer still installs on this package."""

import importlib.util
from pathlib import Path

from auxzeta import aux_eval

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def test_tracer_installs_every_hook():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    # a renamed pass function would not fail the install: its contour
    # evaluations would only be counted with route "other"
    hooks = [attr for mod_name, attr, _ in spans._ROUTE_HOOKS]
    assert {mod_name for mod_name, _, _ in spans._ROUTE_HOOKS} == {"aux_eval"}
    originals = {name: getattr(aux_eval, name) for name in hooks + ["eval_aux_direct"]}
    assert all(callable(fn) for fn in originals.values())

    tracer = spans.Tracer()
    tracer.install()
    try:
        for name, fn in originals.items():
            assert getattr(aux_eval, name) is not fn, name
    finally:
        tracer.uninstall()
    for name, fn in originals.items():
        assert getattr(aux_eval, name) is fn, name
