"""Acceptance gate: every criterion at its stated tolerance.

Each test prints the criterion's pass/fail line (run pytest with -s to see
them live); details land in the captured output on failure.
"""

from dataclasses import replace

import pytest

from auxzeta import acceptance, mean_value, predictors
from auxzeta.aux_eval import n_main_terms

@pytest.mark.parametrize("number", sorted(acceptance.CRITERIA),
                         ids=lambda n: f"criterion_{n}")
def test_criterion(number):
    (result,) = acceptance.run_all([number])
    for d in result.details:
        print("   ", d)
    assert result.passed, result.line() + "\n" + "\n".join(result.details)


def test_criterion_9_reaches_the_worker_split(monkeypatch):
    # a stream folds a run on a worker only from 8 k N >= _SPLIT_TERMS, so
    # the gate's grid must hold such a run for the 8-thread side to differ
    grids, pools = [], []
    integrate = mean_value.integrate_mean
    executor = mean_value.ThreadPoolExecutor

    def spy_integrate(sigma, t_grid, weighted, threads=1):
        grids.append(list(t_grid))
        return integrate(sigma, t_grid, weighted, threads)

    def spy_executor(*args, **kwargs):
        pools.append(args)
        return executor(*args, **kwargs)

    monkeypatch.setattr(mean_value, "integrate_mean", spy_integrate)
    monkeypatch.setattr(mean_value, "ThreadPoolExecutor", spy_executor)
    _, passed, _ = acceptance.criterion_9()
    assert passed
    grid = grids[0]
    largest = max(8 * k * n_main_terms(0.5 * (lo + hi))
                  for lo, hi, k in mean_value._runs(max(grid), grid))
    assert largest >= mean_value._SPLIT_TERMS
    assert pools == [(8,)]


@pytest.mark.parametrize("number,table,sigma,factor", [
    (4, "predict_unweighted", 2.0, 1.0 + 1.0e-4),  # the zeta(4) term
    (2, "predict_weighted", 0.0, 1.06),  # the square-root coefficient 2/3
])
def test_gate_judges_the_reported_table(monkeypatch, number, table, sigma, factor):
    # criteria 2 and 4 take their main term and residual scale from the table
    # that meanvalue reports, so a change to that table reaches the gate
    predict = getattr(predictors, table)
    (c, power, q), = predict(sigma).main_terms

    def scaled(s):
        p = predict(s)
        return replace(p, main_terms=((c * factor, power, q),)) if s == sigma else p

    assert acceptance.CRITERIA[number]()[1]
    monkeypatch.setattr(predictors, table, scaled)
    assert not acceptance.CRITERIA[number]()[1]
