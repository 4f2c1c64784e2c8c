"""Piecewise asymptotic main terms for the second moments, and their
Laplace transforms.

Every prediction is returned as explicit (coefficient, power of T/2pi,
log power) main terms together with the exponent of T in the error term,
so callers can form scaled residuals and Laplace transforms uniformly.
Each table is one chain of sigma comparisons whose edges follow the
closed/open inequalities of the asymptotic tables:

    weighted:   sigma <= 1/4 | 1/4 < sigma < 1/2 | sigma = 1/2
                | 1/2 < sigma < 1 | 1 <= sigma <= 2 | sigma > 2
    unweighted: sigma <= 1/4 | 1/4 < sigma < 1/2 | sigma = 1/2
                | 1/2 < sigma < 1 | sigma = 1 | 1 < sigma < 2 | sigma >= 2

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
from .special_functions import EULER_GAMMA, _mp_context, gamma_real, real_zeta

CRITICAL_CONSTANT_DERIVED = 2.0 * (3.0 * EULER_GAMMA - 1.0) / 9.0
CRITICAL_CONSTANT_ALTERNATE = 2.0 * (3.0 * EULER_GAMMA - 4.0) / 9.0


@dataclass(frozen=True)
class Prediction:
    """Asymptotic main terms plus error-term metadata at one sigma.

    main_terms: tuples (coefficient, power of T/2pi, integer log power);
    error_exponent: power of T inside the O-term;
    log_factor_in_error: whether the O-term carries a sqrt(log T).
    """

    main_terms: tuple
    error_exponent: float
    log_factor_in_error: bool

    def evaluate(self, T: float) -> float:
        """Sum of the main terms at T >= 2 pi."""
        if not T >= TWO_PI:
            raise ValueError("requires T >= 2*pi")
        x = T / TWO_PI
        lx = math.log(x)
        return sum(c * x**p * lx**q for (c, p, q) in self.main_terms)

    def laplace(self, epsilon: float) -> float:
        """int_0^inf e^{-eps T} dF of F = T * sum, term by term, with x = T/2pi
        and the tables' q in {0, 1} (q = 1 is the derivative in p):

            eps int_0^inf e^{-eps T} 2pi c x^{p+1} (log x)^q dT
                = c (2pi)^{-p} Gamma(p+2) eps^{-p-1} L^q,  L = psi(p+2) - log(2pi eps)."""
        if not epsilon > 0.0:
            raise ValueError("epsilon must be positive")
        return sum(c * TWO_PI ** -p * gamma_real(p + 2.0).value * epsilon ** (-p - 1.0)
                   * (float(_mp_context().digamma(p + 2.0)) - math.log(TWO_PI * epsilon)
                      if q else 1.0)
                   for c, p, q in self.main_terms)


def predict_weighted(sigma: float) -> Prediction:
    """Main terms of (1/T) int_1^T |R(sigma+it)|^2 (t/2pi)^sigma dt, with
    edges at sigma = 1/4, 1/2, 1 and 2; the sigma = 1/2 constant is the
    derived 2(3g-1)/9."""
    def sqrt_term():
        return (2.0 / (3.0 * (1.0 - 2.0 * sigma)), 0.5, 0)

    def zeta_term():
        return (real_zeta(2.0 * sigma).value / (sigma + 1.0), sigma, 0)

    if sigma <= 0.25:  # square root alone
        return Prediction((sqrt_term(),), 0.25, False)
    if sigma < 0.5:  # square root plus zeta
        return Prediction((sqrt_term(), zeta_term()), 0.25, False)
    if sigma == 0.5:  # critical logarithm
        return Prediction(((1.0 / 3.0, 0.5, 1), (CRITICAL_CONSTANT_DERIVED, 0.5, 0)),
                          0.25, True)
    if sigma < 1.0:  # zeta plus square root
        return Prediction((zeta_term(), sqrt_term()), 0.5 * sigma, False)
    if sigma <= 2.0:  # zeta alone
        return Prediction((zeta_term(),), 0.5 * sigma, False)
    return Prediction((zeta_term(),), sigma - 1.0, False)  # zeta, wide error


def predict_unweighted(sigma: float) -> Prediction:
    """Main terms of (1/T) int_1^T |R(sigma+it)|^2 dt, with edges at
    sigma = 1/4, 1/2, 1 and 2; sigma = 1 is a case of its own."""
    def sqrt_term():
        return (2.0 / ((1.0 - 2.0 * sigma) * (3.0 - 2.0 * sigma)), 0.5 - sigma, 0)

    def zeta_term():
        return (real_zeta(2.0 * sigma).value, 0.0, 0)

    if sigma <= 0.25:  # shifted square root alone
        return Prediction((sqrt_term(),), 0.25 - sigma, False)
    if sigma < 0.5:  # shifted square root plus zeta
        return Prediction((sqrt_term(), zeta_term()), 0.25 - sigma, False)
    if sigma == 0.5:  # critical logarithm
        return Prediction(((0.5, 0.0, 1), (EULER_GAMMA - 0.5, 0.0, 0)), -0.25, True)
    if sigma < 1.0:  # zeta plus shifted square root
        return Prediction((zeta_term(), sqrt_term()), -0.5 * sigma, False)
    if sigma == 1.0:  # zeta, logarithmic error
        return Prediction((zeta_term(),), -0.5, True)
    if sigma < 2.0:  # zeta alone
        return Prediction((zeta_term(),), -0.5 * sigma, False)
    return Prediction((zeta_term(),), -1.0, False)  # zeta, fast error


def predict_laplace_weighted(sigma: float, epsilon: float) -> float:
    """The weighted table's Laplace transform at epsilon."""
    return predict_weighted(sigma).laplace(epsilon)


def predict_laplace_unweighted(sigma: float, epsilon: float) -> float:
    """The unweighted table's Laplace transform at epsilon."""
    return predict_unweighted(sigma).laplace(epsilon)


def exp_poly_integral(a: float, epsilon: float) -> float:
    """int_1^inf t^a e^{-eps t} dt = eps^{-1-a} Gamma(1+a, eps) for a > 0 and
    eps > 0: the upper incomplete gamma in a fresh `_mp_context` (30 digits),
    rounded once to binary64 (within an ulp), so criterion 6 calibrates the
    Laplace node sum against an exact target."""
    if not a > 0.0:
        raise ValueError("requires a > 0")
    if not epsilon > 0.0:
        raise ValueError("epsilon must be positive")
    ctx = _mp_context()
    power = 1 + ctx.mpf(a)
    return float(ctx.gammainc(power, ctx.mpf(epsilon)) / ctx.mpf(epsilon) ** power)
