"""Piecewise asymptotic main terms for the second moments, plus the
Laplace-transform predictors.

Every prediction is returned as explicit (coefficient, power of T/2pi,
log power) main terms together with the exponent of T in the error term,
so callers can form scaled residuals uniformly.  Regime boundaries follow
the closed/open inequalities of the asymptotic tables: sigma = 1/4 belongs
to the flat square-root regime, sigma = 1/2 is the logarithmic case,
sigma in [1, 2] keeps the T^{sigma/2} error, and only sigma > 2 degrades
to T^{sigma-1} (weighted); the unweighted table is the analogous
seven-case split.

The weighted critical-case constant admits two candidate values that
differ by exactly 2/3; re-deriving the closed-form integral

    int_0^U u^{1/2} (log(u)/2 + gamma) du = U^{3/2} (log(U)/3 + 2(3 gamma - 1)/9)

selects 2(3*gamma-1)/9, and the empirical moment fit confirms it, so that
is the value the weighted table uses.  The alternate value stays defined
as CRITICAL_CONSTANT_ALTERNATE, which criterion 3's fit must reject.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .aux_eval import TWO_PI
from .errors import RangeExceededError
from .special_functions import EULER_GAMMA, gamma_real, log_gamma, real_zeta

WEIGHTED_MEAN = "WeightedMean"
UNWEIGHTED_MEAN = "UnweightedMean"

CRITICAL_CONSTANT_DERIVED = 2.0 * (3.0 * EULER_GAMMA - 1.0) / 9.0
CRITICAL_CONSTANT_ALTERNATE = 2.0 * (3.0 * EULER_GAMMA - 4.0) / 9.0


@dataclass(frozen=True)
class Prediction:
    """Asymptotic main terms plus error-term metadata for one regime.

    main_terms: tuples (coefficient, power of T/2pi, integer log power);
    error_exponent: power of T inside the O-term;
    log_factor_in_error: whether the O-term carries a sqrt(log T).
    """

    main_terms: tuple
    error_exponent: float
    log_factor_in_error: bool
    regime: str

    def evaluate(self, T: float) -> float:
        x = T / TWO_PI
        lx = math.log(x)
        return sum(c * x**p * lx**q for (c, p, q) in self.main_terms)


def regime_of(sigma: float, theorem: str) -> str:
    """Regime label for sigma under the weighted or unweighted table."""
    if theorem == WEIGHTED_MEAN:
        if sigma < 0.0:
            return "negative_sqrt"
        if sigma <= 0.25:
            return "sqrt_main"
        if sigma < 0.5:
            return "sqrt_plus_zeta"
        if sigma == 0.5:
            return "critical_log"
        if sigma < 1.0:
            return "zeta_plus_sqrt"
        if sigma <= 2.0:
            return "zeta_main"
        return "zeta_main_wide_error"
    if theorem == UNWEIGHTED_MEAN:
        if sigma <= 0.25:
            return "shifted_sqrt"
        if sigma < 0.5:
            return "shifted_sqrt_plus_zeta"
        if sigma == 0.5:
            return "critical_log"
        if sigma < 1.0:
            return "zeta_plus_shifted_sqrt"
        if sigma == 1.0:
            return "zeta_edge_log"
        if sigma < 2.0:
            return "zeta_main"
        return "zeta_main_fast_error"
    raise ValueError(f"unknown theorem tag {theorem!r}")


def predict_weighted(sigma: float, T: float) -> Prediction:
    """Main terms of (1/T) int_1^T |R(sigma+it)|^2 (t/2pi)^sigma dt; the
    sigma = 1/2 constant is the derived 2(3g-1)/9."""
    if not T >= TWO_PI:
        raise ValueError("requires T >= 2*pi")
    regime = regime_of(sigma, WEIGHTED_MEAN)
    sqrt_coef = 2.0 / (3.0 * (1.0 - 2.0 * sigma)) if sigma != 0.5 else 0.0

    if regime == "negative_sqrt" or regime == "sqrt_main":
        return Prediction(((sqrt_coef, 0.5, 0),), 0.25, False, regime)
    if regime == "sqrt_plus_zeta":
        zc = real_zeta(2.0 * sigma).value / (sigma + 1.0)
        return Prediction(((sqrt_coef, 0.5, 0), (zc, sigma, 0)), 0.25, False, regime)
    if regime == "critical_log":
        return Prediction(((1.0 / 3.0, 0.5, 1), (CRITICAL_CONSTANT_DERIVED, 0.5, 0)),
                          0.25, True, regime)
    zc = real_zeta(2.0 * sigma).value / (sigma + 1.0)
    if regime == "zeta_plus_sqrt":
        return Prediction(((zc, sigma, 0), (sqrt_coef, 0.5, 0)),
                          0.5 * sigma, False, regime)
    if regime == "zeta_main":
        return Prediction(((zc, sigma, 0),), 0.5 * sigma, False, regime)
    return Prediction(((zc, sigma, 0),), sigma - 1.0, False, regime)


def predict_unweighted(sigma: float, T: float) -> Prediction:
    """Main terms of (1/T) int_1^T |R(sigma+it)|^2 dt (seven regimes)."""
    if not T >= TWO_PI:
        raise ValueError("requires T >= 2*pi")
    regime = regime_of(sigma, UNWEIGHTED_MEAN)
    if sigma != 0.5:
        shifted_coef = 2.0 / ((1.0 - 2.0 * sigma) * (3.0 - 2.0 * sigma))

    if regime == "shifted_sqrt":
        return Prediction(((shifted_coef, 0.5 - sigma, 0),), 0.25 - sigma, False, regime)
    if regime == "shifted_sqrt_plus_zeta":
        zc = real_zeta(2.0 * sigma).value
        return Prediction(((shifted_coef, 0.5 - sigma, 0), (zc, 0.0, 0)),
                          0.25 - sigma, False, regime)
    if regime == "critical_log":
        return Prediction(((0.5, 0.0, 1), (EULER_GAMMA - 0.5, 0.0, 0)),
                          -0.25, True, regime)
    zc = real_zeta(2.0 * sigma).value
    if regime == "zeta_plus_shifted_sqrt":
        return Prediction(((zc, 0.0, 0), (shifted_coef, 0.5 - sigma, 0)),
                          -0.5 * sigma, False, regime)
    if regime == "zeta_edge_log":
        return Prediction(((zc, 0.0, 0),), -0.5, True, regime)
    if regime == "zeta_main":
        return Prediction(((zc, 0.0, 0),), -0.5 * sigma, False, regime)
    return Prediction(((zc, 0.0, 0),), -1.0, False, regime)


def predict_laplace_weighted(sigma: float, epsilon: float) -> float:
    """(2 eps)^{-3/2} / (1 - 2 sigma): the eps -> 0+ main term of the
    weighted moment's Laplace transform, valid for sigma < 1/2."""
    if sigma >= 0.5:
        raise RangeExceededError("Laplace predictor requires sigma < 1/2")
    if not epsilon > 0.0:
        raise ValueError("epsilon must be positive")
    return (2.0 * epsilon) ** -1.5 / (1.0 - 2.0 * sigma)


def predict_laplace_unweighted(sigma: float, epsilon: float) -> float:
    """(1/2eps) (2 pi eps)^{sigma-1/2} Gamma(1/2 - sigma), sigma < 1/2.

    At sigma = 0 the constant weight makes this coincide exactly with the
    weighted predictor.
    """
    if sigma >= 0.5:
        raise RangeExceededError("Laplace predictor requires sigma < 1/2")
    if not epsilon > 0.0:
        raise ValueError("epsilon must be positive")
    return (0.5 / epsilon) * (TWO_PI * epsilon) ** (sigma - 0.5) \
        * gamma_real(0.5 - sigma).value


def exp_poly_integral(a: float, epsilon: float) -> float:
    """int_1^inf t^a e^{-eps t} dt via the identity

        Gamma(1+a)/eps^{1+a} + sum_{n>=1} (-1)^n eps^{n-1} / ((n-1)! (a+n)),

    the alternating series truncated below 1e-16.  Requires a > 0 and
    0 < eps <= 1 (the series is only useful for small eps).
    """
    if not a > 0.0:
        raise ValueError("requires a > 0")
    if not (0.0 < epsilon <= 1.0):
        raise RangeExceededError("requires 0 < epsilon <= 1")
    lead = math.exp(log_gamma(1.0 + a).value.real - (1.0 + a) * math.log(epsilon))
    total = 0.0
    factorial = 1.0
    for n in range(1, 200):
        if n > 1:
            factorial *= (n - 1)
        term = (-1.0) ** n * epsilon ** (n - 1) / (factorial * (a + n))
        total += term
        if abs(term) < 1.0e-16:
            break
    return lead + total
