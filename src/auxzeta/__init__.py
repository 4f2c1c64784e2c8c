"""Numerical study of Riemann's auxiliary function and its second moments.

Public surface: point evaluators (truncated main sum and direct contour
quadrature), the moment engine with its exact diagonal/cross split,
piecewise asymptotic predictors, Laplace-transform checks, bound-suite
oracles, and the acceptance gate behind the ``auxzeta verify`` command.
"""

__version__ = "0.1.0"

from .aux_eval import (AuxEval, ContourSpec, critical_line_decomposition,
                       default_contour, eval_aux, eval_aux_direct, main_sum,
                       n_main_terms)
from .bound_checks import (BoundCheck, double_sum_growth, osc_bound_check,
                           osc_integral, power_sum_asymptotic,
                           power_sum_partial)
from .config import RunConfig, load_config, parse_config
from .laplace import (LaplaceScanRow, laplace_numeric, laplace_ratio_scan,
                      power_law_stream)
from .mean_value import (Decomposition, MeanValueSample, cross_term_value,
                         decomposition_check, diagonal_closed_form,
                         integrate_mean, moment_stream)
from .predictors import (Prediction, exp_poly_integral,
                         predict_laplace_unweighted, predict_laplace_weighted,
                         predict_unweighted, predict_weighted, regime_of)
from .special_functions import (EvalResult, complex_zeta, gamma_real,
                                log_gamma, real_zeta, riemann_siegel_theta)

__all__ = [
    "AuxEval", "BoundCheck", "ContourSpec", "Decomposition", "EvalResult",
    "LaplaceScanRow", "MeanValueSample", "Prediction", "RunConfig",
    "complex_zeta", "critical_line_decomposition", "cross_term_value",
    "decomposition_check", "default_contour", "diagonal_closed_form",
    "double_sum_growth", "eval_aux", "eval_aux_direct",
    "exp_poly_integral", "gamma_real", "integrate_mean", "laplace_numeric",
    "laplace_ratio_scan", "load_config", "log_gamma", "main_sum",
    "moment_stream", "n_main_terms", "osc_bound_check", "osc_integral",
    "parse_config", "power_law_stream", "power_sum_asymptotic",
    "power_sum_partial", "predict_laplace_unweighted",
    "predict_laplace_weighted", "predict_unweighted", "predict_weighted",
    "real_zeta", "regime_of", "riemann_siegel_theta",
]
