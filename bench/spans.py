"""Span tracing of the auxzeta layers, installed from outside the package.

Wrappers are installed by rebinding module and class attributes, so the
package source stays untouched.  Every attribute of an ``auxzeta`` module
that is the wrapped function is rebound too, which catches the by-name
imports (``cli.eval_aux_direct``, ``cli.main_sum``, ``mean_value.osc_integral``,
``laplace.moment_stream``, ``laplace.predict_laplace_weighted``) that would
otherwise call the original and go unseen.

A span records its name, start, end, parent, thread id, round id and the
benchmark job it ran under.  Spans stay in memory until the run ends.  A
span opened on a pool worker thread with nothing open on that thread gets
as parent the innermost span open on the main thread, which is the CLI
command that started the pool.

Self time is attributed by a sweep over span boundaries.  At each instant
the spans that are open and have no open child (on any thread) share the
elapsed wall time equally.  In single-threaded code this is the usual
"duration minus children"; with the 2-thread pool, two busy workers get
half the wall time each, so the self times of a round add up to the wall
time covered by spans and nothing is counted twice.

Each span also records the CPU time of its own thread.  Its self CPU time
(minus children on the same thread) is what the rate metrics use
(``us_per_node``, ``nodes_per_s``, ``terms_per_s``, ``us_per_call``): under the
GIL a worker that waits for the lock gets wall time but no CPU time, so
wall shares would put the mp thread's work partly on the thread waiting
beside it.
"""

from __future__ import annotations

import functools
import json
import sys
import threading
import time

# Route markers: these private pass functions are the only place the route
# a direct contour evaluation took is visible.  They are hooked as
# annotations, not spans, so their time stays with the evaluation.  If a
# later version renames them, the direct calls are counted with route "other".
_ROUTE_HOOKS = (("aux_eval", "_quad_float", "f64"), ("aux_eval", "_quad_mp", "mp"))


class Span:
    __slots__ = ("name", "start", "end", "cpu0", "cpu", "parent", "tid",
                 "round", "job", "attrs", "error")

    def __init__(self, name, start, parent, tid, round_id, job):
        self.name = name
        self.start = start
        self.end = start
        self.cpu0 = time.thread_time()
        self.cpu = 0.0
        self.parent = parent
        self.tid = tid
        self.round = round_id
        self.job = job
        self.attrs = {}
        self.error = False

    def to_json(self, index: int) -> str:
        return json.dumps({"id": index, "name": self.name, "start": self.start,
                           "end": self.end, "cpu": self.cpu, "parent": self.parent,
                           "thread": self.tid, "round": self.round,
                           "job": self.job, "error": self.error,
                           "attrs": self.attrs}, sort_keys=True)


class Tracer:
    """In-memory span recorder with attribute-rebinding install/uninstall."""

    def __init__(self):
        self.spans: list[Span] = []
        self.round_id = -1
        self.job = ""
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._main_tid = threading.get_ident()
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _stack(self) -> list[int]:
        if threading.get_ident() == self._main_tid:
            return self._main_stack
        st = getattr(self._local, "stack", None)
        if st is None:
            st = self._local.stack = []
        return st

    def open(self, name: str) -> int:
        stack = self._stack()
        if stack:
            parent = stack[-1]
        elif stack is not self._main_stack and self._main_stack:
            parent = self._main_stack[-1]
        else:
            parent = None
        span = Span(name, time.perf_counter(), parent, threading.get_ident(),
                    self.round_id, self.job)
        with self._lock:
            idx = len(self.spans)
            self.spans.append(span)
        stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        span = self.spans[idx]
        span.end = time.perf_counter()
        span.cpu = time.thread_time() - span.cpu0
        self._stack().pop()

    def current(self) -> Span | None:
        stack = self._stack()
        return self.spans[stack[-1]] if stack else None

    # -- installing wrappers ----------------------------------------------

    def _span_wrapper(self, fn, name, after):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer.spans[idx].error = True
                raise
            finally:
                tracer.close(idx)
            if after is not None:
                after(tracer.spans[idx], args, kwargs, result)
            return result
        return wrapper

    def _route_wrapper(self, fn, route):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            span = tracer.current()
            if span is not None:
                span.attrs["route"] = route
                span.attrs.setdefault("passes", []).append(int(result[1]))
            return result
        return wrapper

    def _rebind(self, original, replacement) -> int:
        n = 0
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "auxzeta"
                                   or mod_name.startswith("auxzeta.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, attr, original))
                    setattr(mod, attr, replacement)
                    n += 1
        return n

    def install(self) -> None:
        """Wrap every traced layer function; `uninstall` restores them."""
        import auxzeta.cli
        from auxzeta import (aux_eval, bound_checks, cache, laplace,
                             mean_value, predictors, special_functions)

        def direct_after(span, args, kwargs, result):
            span.attrs["nodes"] = int(result.n_evals)

        def lookup_after(span, args, kwargs, result):
            span.attrs["hit"] = result is not None

        def integrate_after(span, args, kwargs, result):
            # every sample of one call carries the whole stream's count
            span.attrs["nodes"] = int(result[0].n_evals) if result else 0

        def cross_after(span, args, kwargs, result):
            weighted = args[2] if len(args) > 2 else kwargs["weighted"]
            span.attrs["weighted"] = bool(weighted)

        def decomposition_after(span, args, kwargs, result):
            span.attrs["discrepancy"] = float(result)

        def power_after(span, args, kwargs, result):
            span.attrs["x"] = float(args[0])

        def double_after(span, args, kwargs, result):
            n = int(float(args[0]) + 1e-9)
            span.attrs["pairs"] = n * (n - 1) // 2

        functions = [
            (aux_eval.eval_aux_direct, "aux_eval.direct", direct_after),
            (aux_eval.main_sum, "aux_eval.main_sum", None),
            (mean_value.integrate_mean, "mean_value.integrate_mean", integrate_after),
            (mean_value.moment_stream, "mean_value.moment_stream", None),
            (mean_value.decomposition_check, "mean_value.decomposition_check",
             decomposition_after),
            (mean_value.diagonal_closed_form, "mean_value.diagonal", None),
            (mean_value.cross_term_value, "mean_value.cross", cross_after),
            (laplace.laplace_ratio_scan, "laplace.scan", None),
            (laplace.laplace_numeric, "laplace.numeric", None),
            (bound_checks.osc_integral, "bound_checks.osc_integral", None),
            (bound_checks.power_sum_check, "bound_checks.power_sum", power_after),
            (bound_checks.double_sum_growth, "bound_checks.double_sum", double_after),
            (auxzeta.cli.main, "cli", None),
        ]
        for fn_name in ("predict_weighted", "predict_unweighted",
                        "predict_laplace_weighted", "predict_laplace_unweighted"):
            functions.append((getattr(predictors, fn_name), "predictors", None))
        for fn_name in ("complex_zeta", "real_zeta", "gamma_real", "log_gamma",
                        "riemann_siegel_theta"):
            functions.append((getattr(special_functions, fn_name),
                              "special_functions", None))
        for fn, name, after in functions:
            if self._rebind(fn, self._span_wrapper(fn, name, after)) == 0:
                raise RuntimeError(f"no attribute to rebind for {name}")

        # power_sum_partial runs only on the binary64 branch of power_sum_check
        partial = bound_checks.power_sum_partial
        self._rebind(partial, self._annotating(partial, route="f64"))

        for mod_name, attr, route in _ROUTE_HOOKS:
            mod = sys.modules[f"auxzeta.{mod_name}"]
            fn = getattr(mod, attr, None)
            if fn is not None:
                self._rebind(fn, self._route_wrapper(fn, route))

        methods = [
            (cache.EvalCache, "__init__", "cache.load", None),
            (cache.EvalCache, "lookup", "cache.lookup", lookup_after),
            (cache.EvalCache, "insert", "cache.insert", None),
            (predictors.Prediction, "evaluate", "predictors", None),
        ]
        for cls, attr, name, after in methods:
            original = cls.__dict__[attr]
            self._patches.append((cls, attr, original))
            setattr(cls, attr, self._span_wrapper(original, name, after))

    def _annotating(self, fn, **attrs):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = tracer.current()
            if span is not None:
                span.attrs.update(attrs)
            return fn(*args, **kwargs)
        return wrapper

    def uninstall(self) -> None:
        for obj, attr, original in reversed(self._patches):
            setattr(obj, attr, original)
        self._patches.clear()

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, span in enumerate(self.spans):
                fh.write(span.to_json(i) + "\n")


def self_times(spans: list[Span], indices: list[int]) -> dict[int, float]:
    """Wall-time share of each span in `indices` (one round's spans).

    At every instant the open spans without an open child split the elapsed
    time equally, so parallel workers are not double-counted.
    """
    events = []
    for i in indices:
        events.append((spans[i].start, 1, i))
        events.append((spans[i].end, 0, i))
    events.sort()
    share = dict.fromkeys(indices, 0.0)
    open_children = dict.fromkeys(indices, 0)
    open_set: set[int] = set()
    prev = None
    for t, kind, i in events:
        if prev is not None and t > prev and open_set:
            leaves = [j for j in open_set if open_children[j] == 0]
            if leaves:
                d = (t - prev) / len(leaves)
                for j in leaves:
                    share[j] += d
        prev = t
        parent = spans[i].parent
        if kind == 1:
            open_set.add(i)
            if parent is not None:
                open_children[parent] += 1
        else:
            open_set.discard(i)
            if parent is not None:
                open_children[parent] -= 1
    return share


def _layer(name: str) -> str:
    return name.split(".", 1)[0]


def layer_metrics(spans: list[Span], rounds: list[int],
                  rows_per_round: dict[int, int]
                  ) -> tuple[dict[str, tuple[float, str]], float]:
    """Per-layer metrics, averaged over the traced rounds in `rounds`, and
    the sum of all self times per round."""
    acc: dict[str, float] = {}

    def add(key, value):
        acc[key] = acc.get(key, 0.0) + value

    disc = []
    for r in rounds:
        idx = [i for i, s in enumerate(spans) if s.round == r]
        share = self_times(spans, idx)
        own_cpu = {i: spans[i].cpu for i in idx}
        for i in idx:
            p = spans[i].parent
            if p is not None and spans[p].tid == spans[i].tid:
                own_cpu[p] -= spans[i].cpu
        for i in idx:
            s = spans[i]
            own = share[i]
            cpu = own_cpu[i]
            parent = spans[s.parent] if s.parent is not None else None
            outer = parent is None or _layer(parent.name) != _layer(s.name)
            add("trace.self_sum", own)
            name = s.name
            if name == "aux_eval.direct":
                route = s.attrs.get("route", "other")
                passes = s.attrs.get("passes", [])
                add(f"direct_{route}.calls", 1)
                add(f"direct_{route}.self_s", own)
                add(f"direct_{route}.cpu_s", cpu)
                add(f"direct_{route}.nodes", s.attrs.get("nodes", 0))
                if passes:
                    add("direct.final_nodes", passes[-1])
                    add("direct.pass_nodes", sum(passes))
            elif name == "aux_eval.main_sum":
                add("main_sum.calls", 1)
                add("main_sum.self_s", own)
            elif name.startswith("cache."):
                add("cache.self_s", own)
                if name == "cache.load":
                    add("cache.load_s", own)
                elif name == "cache.insert":
                    add("cache.inserts", 1)
                else:
                    hit = 1 if s.attrs.get("hit") else 0
                    add("cache.lookups", 1)
                    add("cache.hits", hit)
                    if s.job == "eval_warm":
                        add("cache.warm_lookups", 1)
                        add("cache.warm_hits", hit)
            elif name in ("mean_value.integrate_mean", "mean_value.moment_stream",
                          "mean_value.decomposition_check"):
                # decomposition_check's own time is its streaming pass
                add("stream.calls", 1)
                add("stream.self_s", own)
                if name == "mean_value.integrate_mean":
                    add("stream.nodes", s.attrs.get("nodes", 0))
                    add("stream.integrate_cpu_s", cpu)
                if name == "mean_value.decomposition_check":
                    disc.append(s.attrs.get("discrepancy", 0.0))
            elif name == "mean_value.cross":
                kind = "cross_weighted" if s.attrs.get("weighted") else "cross_unweighted"
                add(f"{kind}.calls", 1)
                add(f"{kind}.self_s", own)
            elif name == "mean_value.diagonal":
                add("diagonal.self_s", own)
            elif name in ("laplace.scan", "laplace.numeric"):
                add(f"{name}.calls", 1)
                add(f"{name}.self_s", own)
            elif name == "bound_checks.osc_integral":
                add("osc.calls", 1)
                add("osc.self_s", own)
                add("osc.cpu_s", cpu)
                if parent is not None and parent.name == "mean_value.cross":
                    add("cross_weighted.pairs", 1)
            elif name == "bound_checks.power_sum":
                if s.attrs.get("route") == "f64":
                    add("power_f64.self_s", own)
                else:
                    add("power_mp.self_s", own)
                    add("power_mp.cpu_s", cpu)
                    add("power_mp.terms", int(s.attrs["x"] + 1e-9))
            elif name == "bound_checks.double_sum":
                add("double.pairs", s.attrs["pairs"])
                add("double.self_s", own)
            elif name in ("predictors", "special_functions"):
                add(f"{name}.self_s", own)
                if outer:
                    add(f"{name}.calls", 1)
            elif name == "cli":
                add("cli.self_s", own)

    n = max(1, len(rounds))
    g = {k: v / n for k, v in acc.items()}
    get = g.get

    def ratio(num, den, scale=1.0):
        d = get(den, 0.0)
        return scale * get(num, 0.0) / d if d > 0 else 0.0

    rows = sum(rows_per_round.get(r, 0) for r in rounds) / n
    out = {
        "aux_eval.direct_mp.calls": (get("direct_mp.calls", 0.0), "count"),
        "aux_eval.direct_mp.self_s": (get("direct_mp.self_s", 0.0), "s"),
        "aux_eval.direct_mp.nodes": (get("direct_mp.nodes", 0.0), "count"),
        "aux_eval.direct_mp.us_per_node":
            (ratio("direct_mp.cpu_s", "direct_mp.nodes", 1e6), "us"),
        "aux_eval.direct_f64.calls": (get("direct_f64.calls", 0.0), "count"),
        "aux_eval.direct_f64.self_s": (get("direct_f64.self_s", 0.0), "s"),
        "aux_eval.direct_f64.nodes": (get("direct_f64.nodes", 0.0), "count"),
        "aux_eval.direct.useful_node_frac":
            (ratio("direct.final_nodes", "direct.pass_nodes"), "frac"),
        "aux_eval.main_sum.calls": (get("main_sum.calls", 0.0), "count"),
        "aux_eval.main_sum.self_s": (get("main_sum.self_s", 0.0), "s"),
        "cache.load_s": (get("cache.load_s", 0.0), "s"),
        "cache.lookups": (get("cache.lookups", 0.0), "count"),
        "cache.hit_frac": (ratio("cache.hits", "cache.lookups"), "frac"),
        "cache.warm_hit_frac": (ratio("cache.warm_hits", "cache.warm_lookups"), "frac"),
        "cache.inserts": (get("cache.inserts", 0.0), "count"),
        "cache.self_s": (get("cache.self_s", 0.0), "s"),
        "mean_value.stream.calls": (get("stream.calls", 0.0), "count"),
        "mean_value.stream.self_s": (get("stream.self_s", 0.0), "s"),
        "mean_value.stream.nodes": (get("stream.nodes", 0.0), "count"),
        "mean_value.stream.nodes_per_s":
            (ratio("stream.nodes", "stream.integrate_cpu_s"), "1/s"),
        "mean_value.cross_weighted.calls": (get("cross_weighted.calls", 0.0), "count"),
        "mean_value.cross_weighted.self_s": (get("cross_weighted.self_s", 0.0), "s"),
        "mean_value.cross_weighted.pairs": (get("cross_weighted.pairs", 0.0), "count"),
        "mean_value.cross_unweighted.self_s": (get("cross_unweighted.self_s", 0.0), "s"),
        "mean_value.diagonal.self_s": (get("diagonal.self_s", 0.0), "s"),
        "mean_value.max_discrepancy": (max(disc) if disc else 0.0, "ratio"),
        "laplace.scan.calls": (get("laplace.scan.calls", 0.0), "count"),
        "laplace.scan.self_s": (get("laplace.scan.self_s", 0.0), "s"),
        "laplace.numeric.calls": (get("laplace.numeric.calls", 0.0), "count"),
        "laplace.numeric.self_s": (get("laplace.numeric.self_s", 0.0), "s"),
        "predictors.calls": (get("predictors.calls", 0.0), "count"),
        "predictors.self_s": (get("predictors.self_s", 0.0), "s"),
        "bound_checks.osc_integral.calls": (get("osc.calls", 0.0), "count"),
        "bound_checks.osc_integral.self_s": (get("osc.self_s", 0.0), "s"),
        "bound_checks.osc_integral.us_per_call":
            (ratio("osc.cpu_s", "osc.calls", 1e6), "us"),
        "bound_checks.power_sum_mp.terms": (get("power_mp.terms", 0.0), "count"),
        "bound_checks.power_sum_mp.self_s": (get("power_mp.self_s", 0.0), "s"),
        "bound_checks.power_sum_mp.terms_per_s":
            (ratio("power_mp.terms", "power_mp.cpu_s"), "1/s"),
        "bound_checks.power_sum_f64.self_s": (get("power_f64.self_s", 0.0), "s"),
        "bound_checks.double_sum.pairs": (get("double.pairs", 0.0), "count"),
        "bound_checks.double_sum.self_s": (get("double.self_s", 0.0), "s"),
        "special_functions.calls": (get("special_functions.calls", 0.0), "count"),
        "special_functions.self_s": (get("special_functions.self_s", 0.0), "s"),
        "cli.self_s": (get("cli.self_s", 0.0), "s"),
        "cli.rows": (rows, "count"),
    }
    return out, get("trace.self_sum", 0.0)
