"""Moment engine: closed forms, decomposition exactness, stream contracts."""

import math
import os
import resource
import subprocess
import sys
import threading
import time
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from auxzeta import mean_value
from auxzeta.aux_eval import TWO_PI_LONG, n_main_terms
from auxzeta.bound_checks import _GLW8, _GLX8, osc_integral
from auxzeta.errors import BudgetExceededError, CoverageError
from auxzeta.laplace import laplace_numeric
from auxzeta.mean_value import (_fold_run, _runs, cross_term_value,
                                decomposition_check, diagonal_closed_form,
                                integrate_mean, moment_stream)

TWO_PI = 2.0 * math.pi


class TestDiagonal:
    def test_two_term_hand_value(self):
        # T=8pi, sigma=0, unweighted: (8pi-2pi) + (8pi-8pi) = 6pi
        assert diagonal_closed_form(0.0, 8.0 * math.pi, False) == pytest.approx(
            6.0 * math.pi, rel=1e-14)

    def test_weight_degenerates_at_sigma_zero(self):
        T = 8.0 * math.pi
        assert diagonal_closed_form(0.0, T, True) == pytest.approx(
            diagonal_closed_form(0.0, T, False), rel=1e-14)

    def test_log_branch_matches_direct_sum(self):
        # weighted sigma=-1 at T = 2pi*1e4 equals 4pi sum n^2 log(100/n)
        T = TWO_PI * 1.0e4
        n = np.arange(1, 101, dtype=np.float64)
        want = 4.0 * math.pi * float(np.sum(n * n * np.log(100.0 / n)))
        assert diagonal_closed_form(-1.0, T, True) == pytest.approx(want, rel=1e-13)

    def test_general_weighted_vs_quadrature(self):
        # independent route: integrate the weight over each term's window
        sigma, T = 0.75, TWO_PI * 30.0
        total = 0.0
        for nn in range(1, int(math.sqrt(T / TWO_PI)) + 1):
            lo = TWO_PI * nn * nn
            grid = np.linspace(lo, T, 20001)
            total += nn ** (-2.0 * sigma) * float(
                np.trapezoid((grid / TWO_PI) ** sigma, grid))
        assert diagonal_closed_form(sigma, T, True) == pytest.approx(total, rel=1e-8)


class TestCrossTerm:
    def test_empty_pair_set(self):
        assert cross_term_value(0.0, 7.0 * math.pi, False) == 0.0
        assert cross_term_value(0.0, 7.0 * math.pi, True) == 0.0

    def test_degenerate_interval_at_8pi(self):
        # the only pair (1,2) integrates over [8pi, 8pi]
        assert cross_term_value(0.0, 8.0 * math.pi, False) == pytest.approx(0.0, abs=1e-14)

    def test_unweighted_closed_form_vs_quadrature(self):
        # dual route: sine antiderivative against per-pair quadrature
        sigma, T = 0.0, TWO_PI * 25.0
        N = int(math.sqrt(T / TWO_PI))
        by_quad = 0.0
        for nn in range(2, N + 1):
            lo = TWO_PI * nn * nn
            if lo >= T:  # term enters exactly at T: empty window
                continue
            for m in range(1, nn):
                L = math.log(nn / m)
                by_quad += 2.0 * (nn * m) ** (-sigma) * osc_integral(lo, T, 0.0, L).value
        assert cross_term_value(sigma, T, False) == pytest.approx(by_quad, abs=1e-7)

    def test_weighted_envelope(self):
        # |cross| <= 6 (T/2pi)^s * sum_{m<n} 1/((nm)^s log(n/m)): the
        # oscillatory-integral bound applied pairwise
        sigma, T = 1.0, TWO_PI * 100.0
        N = int(math.sqrt(T / TWO_PI))
        envelope_sum = 0.0
        for nn in range(2, N + 1):
            for m in range(1, nn):
                envelope_sum += (nn * m) ** (-sigma) / math.log(nn / m)
        bound = 6.0 * (T / TWO_PI) ** sigma * envelope_sum
        assert abs(cross_term_value(sigma, T, True)) <= bound

    def test_weighted_sigma_zero_is_unweighted(self):
        # w = (t/2pi)^0 = 1: both take the sine antiderivative, bit for bit
        T = TWO_PI * 400.0
        assert cross_term_value(0.0, T, True) == cross_term_value(0.0, T, False)

    def test_pair_budget(self):
        with pytest.raises(BudgetExceededError):
            cross_term_value(0.0, TWO_PI * 1501.0**2, False)


class TestDecomposition:
    @pytest.mark.parametrize("sigma,weighted", [
        (0.0, True), (0.5, True), (1.0, False),
    ])
    def test_criterion_samples(self, sigma, weighted):
        assert decomposition_check(sigma, TWO_PI * 400.0, weighted) <= 1e-6

    def test_parts_recorded(self):
        T = TWO_PI * 100.0
        assert diagonal_closed_form(0.5, T, True) >= 0.0
        assert math.isfinite(cross_term_value(0.5, T, True))


class TestIntegrateMean:
    def test_positivity_and_monotonicity(self):
        grid = [TWO_PI * x for x in (10.0, 40.0, 100.0)]
        samples = integrate_mean(0.5, grid, weighted=True)
        raws = [s.raw_integral for s in samples]
        assert all(r >= 0.0 for r in raws)
        assert all(b >= a for a, b in zip(raws, raws[1:]))
        for s in samples:
            assert s.value == s.raw_integral / s.T

    def test_panel_refinement_within_quad_error(self):
        # quad_error, the sum of the runs' proven bounds, covers the stream's
        # true error, measured against the independent diagonal + cross split;
        # at 2pi * 2000 only the pairs with an exact antiderivative, since the
        # weighted sigma != 0 cross term takes about 1.2 s a case there (2-core
        # x86_64, numpy 2.4), against 0.04 s for the stream
        cheap = ((0.0, True), (-1.0, False), (0.5, False), (2.0, False))
        cases = [(TWO_PI * x, sigma, weighted) for x in (100.0, 400.0)
                 for sigma, weighted in cheap + ((0.5, True), (-1.0, True))]
        cases += [(TWO_PI * 2000.0, sigma, weighted) for sigma, weighted in cheap]
        for T, sigma, weighted in cases:
            sample = integrate_mean(sigma, [T], weighted)[0]
            split = (diagonal_closed_form(sigma, T, weighted)
                     + cross_term_value(sigma, T, weighted))
            assert abs(sample.raw_integral - split) <= sample.quad_error, (T, sigma, weighted)

    def test_quad_error_cumulative_per_row(self):
        # grid points at term-entry points 2 pi n^2, which are panel edges
        # anyway, so the single-T stream has the same panels
        grid = [TWO_PI * k * k for k in (10, 20, 30)]
        errs = [s.quad_error for s in integrate_mean(0.5, grid, weighted=True)]
        assert errs[0] < errs[1] < errs[2]
        alone = integrate_mean(0.5, grid[-1:], weighted=True)[0]
        assert errs[-1] == alone.quad_error

    @pytest.mark.parametrize("sigma,weighted", [
        (0.0, True), (0.5, True), (2.0, False), (0.5, False),
    ])
    def test_quad_error_at_top_of_gate(self, sigma, weighted):
        # criteria 2-5's top T: the proven bound stays within 1e-12 of F
        sample = integrate_mean(sigma, [TWO_PI * 1.0e4], weighted)[0]
        assert 0.0 < sample.quad_error <= 1e-12 * sample.raw_integral
        assert sample.n_evals % 8 == 0

    @pytest.mark.parametrize("weighted", [True, False])
    @pytest.mark.parametrize("sigma", [-1.0, 0.0, 0.25, 0.5, 1.0, 2.0, 3.0])
    def test_panels_leave_the_bound_to_roundoff(self, sigma, weighted):
        # panel_width is as wide as the bound allows: each run's Gauss-Legendre
        # term (its `_run_error` at F_run = 0, which adds only delta^2 W) sums
        # to at most 1.4e-3 of quad_error up to every T; at 8/3 panels a period
        # instead of four it reaches 0.66 of it
        grid = [TWO_PI * x for x in (100.0, 2000.0, 1.0e4)]
        samples = integrate_mean(sigma, grid, weighted)
        rule = dict.fromkeys(grid, 0.0)
        for lo, hi, k in _runs(max(grid), grid):
            N = n_main_terms(0.5 * (lo + hi))
            term = mean_value._run_error(sigma, weighted, lo, hi, k, N, 0.0) if N else 0.0
            for T in grid:
                rule[T] += term if hi <= T else 0.0
        for s in samples:
            assert 0.0 < rule[s.T] <= 1e-2 * s.quad_error, (s.T, rule[s.T] / s.quad_error)

    def test_deterministic_repeat(self):
        grid = [TWO_PI * 50.0, TWO_PI * 120.0]
        a = integrate_mean(1.0, grid, weighted=False)
        b = integrate_mean(1.0, grid, weighted=False)
        assert [s.raw_integral for s in a] == [s.raw_integral for s in b]
        assert [s.n_evals for s in a] == [s.n_evals for s in b]

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            integrate_mean(0.0, [TWO_PI * 10.0, TWO_PI * 5.0], True)
        with pytest.raises(ValueError):
            integrate_mean(0.0, [1.0], True)
        assert integrate_mean(0.0, [], True) == []

    def test_measure_sums_to_F(self):
        # the transform's measure: non-negative, and its total is the same
        # pass's F(T_max) within that sample's proven bound
        T = TWO_PI * 60.0
        stream = moment_stream(0.0, T, weighted=True)
        assert stream.t_max == T
        assert all(np.all(dF >= 0.0) for _, _, dF in stream.runs)
        total = math.fsum(x for _, _, dF in stream.runs for x in dF.ravel().tolist())
        sample = integrate_mean(0.0, [T], weighted=True)[0]
        assert abs(total - sample.raw_integral) <= sample.quad_error
        assert sum(dF.size for _, _, dF in stream.runs) == sample.n_evals

    def test_pool_threads_match_serial(self, monkeypatch):
        # two streams at once from a pool must give the bits that one stream
        # at a time gives, also when small tiles split every run into many
        # products, and leave OpenBLAS's thread count as they found it
        grid = [TWO_PI * 400.0, TWO_PI * 1000.0]
        cases = [(0.5, True), (2.0, False)]

        def one(case):
            start.wait()
            return integrate_mean(case[0], grid, case[1])

        before = _blas_count()
        for chunk_terms in (mean_value._CHUNK_TERMS, 3000):
            monkeypatch.setattr(mean_value, "_CHUNK_TERMS", chunk_terms)
            serial = [integrate_mean(sigma, grid, weighted) for sigma, weighted in cases]
            start = threading.Barrier(len(cases))
            with ThreadPoolExecutor(max_workers=len(cases)) as pool:
                assert list(pool.map(one, cases)) == serial, chunk_terms
            assert _blas_count() == before, chunk_terms

    def test_thread_budget_keeps_the_bits(self, monkeypatch):
        # to 2pi 2e4 (N <= 141) the runs from N = 86 are large enough to fold
        # on the stream's workers: every sample is bit-equal at 1, 2 and 3
        # threads, and a stream with no large run starts no thread
        grid = [TWO_PI * 3.3, TWO_PI * 2000.0, TWO_PI * 1.0e4, TWO_PI * 2.0e4]
        fold, folders = mean_value._fold_run, set()

        def recording(*args):
            folders.add(threading.get_ident())
            return fold(*args)

        monkeypatch.setattr(mean_value, "_fold_run", recording)
        want = integrate_mean(0.5, grid, True, threads=1)
        assert folders == {threading.get_ident()}
        for threads in (2, 3):
            folders.clear()
            assert integrate_mean(0.5, grid, True, threads=threads) == want, threads
            assert len(folders) > 1, threads
        folders.clear()
        integrate_mean(0.5, grid[:2], True, threads=2)
        assert folders == {threading.get_ident()}

    def test_kept_measure_is_not_a_workspace_view(self):
        # each run's dF owns its data, so a later stream, which folds into
        # fresh workspaces of its own, moves no bit of an earlier measure
        first = moment_stream(0.0, TWO_PI * 1.0e4, weighted=True, threads=2)
        kept = [dF.copy() for _, _, dF in first.runs]
        transforms = [laplace_numeric(eps, first) for eps in (0.05, 0.01)]
        assert all(dF.flags.owndata for _, _, dF in first.runs)
        moment_stream(-1.0, TWO_PI * 1.0e4, weighted=True, threads=2)
        integrate_mean(0.5, [TWO_PI * 2000.0], True)
        assert all(np.array_equal(dF, k) for (_, _, dF), k in zip(first.runs, kept))
        assert [laplace_numeric(eps, first) for eps in (0.05, 0.01)] == transforms

    def test_budget_fails_fast(self):
        # the cross term's pair budget, checked before any panel is built
        T = TWO_PI * 1501.0**2
        t0 = time.perf_counter()
        with pytest.raises(BudgetExceededError):
            integrate_mean(0.0, [TWO_PI * 10.0, T], True)
        with pytest.raises(BudgetExceededError):
            moment_stream(0.5, T, False)
        assert time.perf_counter() - t0 < 0.1

    @pytest.mark.parametrize("T_max", [1e-19, 1.0, 6.0])
    def test_stream_below_first_term_is_typed_error(self, T_max):
        # below 2pi, where the first term enters, the stream has nothing to hold
        with pytest.raises(CoverageError, match="below 2\\*pi"):
            moment_stream(0.0, T_max, True)


def _blas_count():
    """OpenBLAS's process-wide thread count, read through the stream's scope,
    or None for a numpy build without its controls."""
    controls = mean_value._ONE_BLAS_THREAD.controls
    return None if controls is None else controls[0]()


@pytest.mark.skipif(mean_value._ONE_BLAS_THREAD.controls is None,
                    reason="numpy's build exposes no OpenBLAS thread controls")
class TestOneBlasThread:
    def test_count_held_and_restored(self, monkeypatch):
        # the count reads 1 inside every fold, and the entry value again
        # after a stream that returns and after one that raises
        entry = _blas_count()
        fold, seen = mean_value._fold_run, []

        def counting(*args):
            seen.append(_blas_count())
            return fold(*args)

        monkeypatch.setattr(mean_value, "_fold_run", counting)
        integrate_mean(0.5, [TWO_PI * 100.0], True)
        assert seen and set(seen) == {1}
        assert _blas_count() == entry

        def failing(*args):
            seen.append(_blas_count())
            raise RuntimeError("fold failed")

        seen.clear()
        monkeypatch.setattr(mean_value, "_fold_run", failing)
        with pytest.raises(RuntimeError, match="fold failed"):
            integrate_mean(0.5, [TWO_PI * 100.0], True)
        assert seen == [1]
        assert _blas_count() == entry

    def test_no_controls_leaves_blas_alone(self, monkeypatch):
        # a numpy build without OpenBLAS's symbols: the scope does nothing
        # and the stream gives the same samples
        entry = _blas_count()
        get = mean_value._ONE_BLAS_THREAD.controls[0]
        grid = [TWO_PI * 50.0, TWO_PI * 120.0]
        want = integrate_mean(1.0, grid, False)
        fold, seen = mean_value._fold_run, []

        def counting(*args):
            seen.append(get())
            return fold(*args)

        monkeypatch.setattr(mean_value._ONE_BLAS_THREAD, "controls", None)
        monkeypatch.setattr(mean_value, "_fold_run", counting)
        assert integrate_mean(1.0, grid, False) == want
        assert seen and set(seen) == {entry}

    def test_concurrent_streams_restore_count(self, monkeypatch):
        # more workers than cores, switching threads every microsecond: a lost
        # update to the count of active streams would let one stream restore
        # the entry count while another folds, or leave the count at 1 after.
        # Hundreds of short streams a worker give the scope's entries and
        # exits many chances to race
        entry = _blas_count()
        cases = [(0.5, True), (2.0, False), (0.0, True), (1.0, False)]
        grid, short = [TWO_PI * 60.0, TWO_PI * 150.0], [TWO_PI * 2.0]
        want = [[integrate_mean(sigma, grid, weighted)]
                + [integrate_mean(sigma, short, weighted)] * 300 for sigma, weighted in cases]
        results, seen = [None] * len(cases), []
        start = threading.Barrier(len(cases), timeout=60.0)
        fold = mean_value._fold_run

        def counting(*args):
            seen.append(_blas_count())
            return fold(*args)

        def worker(w):
            sigma, weighted = cases[w]
            start.wait()
            results[w] = ([integrate_mean(sigma, grid, weighted)]
                          + [integrate_mean(sigma, short, weighted) for _ in range(300)])

        monkeypatch.setattr(mean_value, "_fold_run", counting)
        interval = sys.getswitchinterval()
        try:
            sys.setswitchinterval(1e-6)
            workers = [threading.Thread(target=worker, args=(w,)) for w in range(len(cases))]
            for t in workers:
                t.start()
            for t in workers:
                t.join(timeout=60.0)
            assert not any(t.is_alive() for t in workers)
        finally:
            sys.setswitchinterval(interval)
        assert results == want
        assert seen and set(seen) == {1}
        assert _blas_count() == entry

    @pytest.mark.parametrize("N", [44, 100])
    @pytest.mark.parametrize("chunk_terms", [None, 3000])
    def test_blas_threads_keep_the_bits(self, monkeypatch, chunk_terms, N):
        # a property of OpenBLAS 0.3.31 on a 2-core x86_64 host, measured at
        # 2 threads, not one the stream relies on (it folds on one thread):
        # up to N = 128 two BLAS threads split a product's rows, never its
        # sum over n, so a fold gives the bits of one thread.  Above, they
        # re-block that sum (at N = 129..419 panel values move by up to 7e-15)
        if chunk_terms is not None:
            monkeypatch.setattr(mean_value, "_CHUNK_TERMS", chunk_terms)
        entry = _blas_count()
        lo, hi = TWO_PI * N * N, TWO_PI * (N + 1) ** 2
        k = math.ceil((hi - lo) / mean_value.panel_width(hi))
        args = (0.5, True, lo, (hi - lo) / k, k, N)
        put = mean_value._ONE_BLAS_THREAD.controls[1]
        put(2)
        try:
            threaded = _fold_run(*args)
        finally:
            put(entry)
        with mean_value._ONE_BLAS_THREAD:
            assert _blas_count() == 1
            single = _fold_run(*args)
        assert np.array_equal(threaded, single)


def _fold_node_by_node(sigma, weighted, lo, h, k):
    """|S|^2 w at every node, shape (k, 8), with one exp per node and term,
    the phases t log n formed and reduced in extended precision at each node."""
    t = ((lo + h * (np.arange(k, dtype=np.longdouble) + 0.5))[:, None]
         + 0.5 * h * _GLX8.astype(np.longdouble)[None, :]).ravel()
    t64 = t.astype(np.float64)
    N = np.array([n_main_terms(x) for x in t64])
    n = np.arange(1, N.max() + 1)
    phase = np.mod(np.outer(t, np.log(n.astype(np.longdouble))), TWO_PI_LONG)
    terms = np.exp(-1j * phase.astype(np.float64)) * n ** -sigma
    S = np.where(n[None, :] <= N[:, None], terms, 0.0).sum(axis=1)
    vals = np.abs(S) ** 2 * ((t64 / TWO_PI) ** sigma if weighted else 1.0)
    return vals.reshape(k, 8)


def _assert_nodes_and_panels(got, want, rel, where):
    """Node values within rel of their panel's largest (a node where |S|
    nearly cancels has no relative accuracy) and panel sums within rel."""
    assert got.shape == want.shape, where
    scale = want.max(axis=1, keepdims=True)
    assert np.all(np.abs(got - want) <= rel * scale), where
    assert np.all(np.abs(got @ _GLW8 - want @ _GLW8) <= rel * (want @ _GLW8)), where


class TestFoldRun:
    @pytest.mark.parametrize("weighted", [True, False])
    @pytest.mark.parametrize("sigma", [-1.0, 0.0, 0.5, 2.0])
    @pytest.mark.parametrize("chunk_terms", [None, 3000])
    def test_matches_node_by_node(self, monkeypatch, sigma, weighted, chunk_terms):
        if chunk_terms is not None:  # tiles split the rows and the columns
            monkeypatch.setattr(mean_value, "_CHUNK_TERMS", chunk_terms)
        grid = [TWO_PI * 1234.5, TWO_PI * 2000.5]
        runs = {hi: (lo, hi, k) for lo, hi, k in _runs(grid[-1], grid)}
        # runs that end at a grid T, at a term-entry point, and at T_max
        for hi in (grid[0], TWO_PI * 44 * 44, grid[-1], TWO_PI * 4):
            lo, hi, k = runs[hi]
            h = (hi - lo) / k
            got = _fold_run(sigma, weighted, lo, h, k, n_main_terms(0.5 * (lo + hi)))
            want = _fold_node_by_node(sigma, weighted, lo, h, k)
            _assert_nodes_and_panels(got, want, 1e-12, (lo, hi, k))
        # the first 64 panels of the run that ends at 2pi 1500^2, N = 1499:
        # folding 1024 of them puts 8 x 32 x 1499 values in the right-hand
        # factor, more than the default tile bound, so its columns are tiled.
        # At t ~ 1.4e7 the phases t log n ~ 1e8 rad each carry a long double
        # rounding of about 5e-12 rad, in the oracle as in the fold, so the
        # two agree to 3.3e-11 here (the untiled kernel too), not to 1e-12
        lo, hi = TWO_PI * 1499.0**2, TWO_PI * 1500.0**2
        h = (hi - lo) / math.ceil((hi - lo) / mean_value.panel_width(hi))
        got = _fold_run(sigma, weighted, lo, h, 1024, 1499)[:64]
        want = _fold_node_by_node(sigma, weighted, lo, h, 64)
        _assert_nodes_and_panels(got, want, 1e-10, (lo, hi, 64))

    def test_workspace_reuse_is_bit_equal(self):
        # one workspace over runs of several sizes gives each run the bits
        # of a fold on fresh buffers
        ws = {}
        for N in (60, 5, 43, 60):
            lo, hi = TWO_PI * N * N, TWO_PI * (N + 1) ** 2
            k = math.ceil((hi - lo) / mean_value.panel_width(hi))
            args = (0.5, True, lo, (hi - lo) / k, k, N)
            assert np.array_equal(_fold_run(*args, ws), _fold_run(*args)), N

    @pytest.mark.skipif(not hasattr(resource, "RUSAGE_THREAD"),
                        reason="no per-thread resource usage on this platform")
    def test_second_fold_maps_few_pages(self):
        # the second fold of a run on one workspace faults in a small share of
        # the pages of the first, which maps the buffers.  In a fresh
        # interpreter, so that free heap left by other tests cannot hide them.
        # Twice the rule's panels (about 4000), so that the buffers' pages
        # (about 430) outweigh the 45-65 that each fold's own phase tables
        # fault in whatever the workspace; at the rule's 2006 panels the
        # first fold reads 183-239 pages against them
        script = (
            "import math, resource\n"
            "from auxzeta import mean_value as mv\n"
            "N = 60\n"
            "lo, hi = 2 * math.pi * N * N, 2 * math.pi * (N + 1) ** 2\n"
            "k = 2 * math.ceil((hi - lo) / mv.panel_width(hi))\n"
            "ws, faults = {}, []\n"
            "with mv._ONE_BLAS_THREAD:\n"
            "    for _ in range(2):\n"
            "        f0 = resource.getrusage(resource.RUSAGE_THREAD).ru_minflt\n"
            "        mv._fold_run(0.5, True, lo, (hi - lo) / k, k, N, ws)\n"
            "        faults.append(resource.getrusage(resource.RUSAGE_THREAD).ru_minflt - f0)\n"
            "print(*faults)\n")
        src = os.path.dirname(os.path.dirname(mean_value.__file__))
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                             env=env, timeout=120, check=True).stdout
        first, second = map(int, out.split())
        assert first >= 100 and 4 * second <= first, (first, second)

    def test_peak_memory(self):
        # tiles bound the kernel's memory at N = 1499 whatever the run's length
        lo, hi = TWO_PI * 1499.0**2, TWO_PI * 1500.0**2
        h = (hi - lo) / math.ceil((hi - lo) / mean_value.panel_width(hi))
        tracemalloc.start()
        try:
            _fold_run(0.5, True, lo, h, 40000, 1499)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 16 * 2**20, peak
