"""Piecewise asymptotic main terms for the second moments, and their
Laplace transforms.

Each prediction holds explicit (coefficient, power of T/2pi, log power)
main terms, the exponent of T in the error term and its `residual_scale`,
so callers form scaled residuals and Laplace transforms uniformly.  Both
tables are one chain in the weight exponent a (sigma weighted, 0 not),
the main terms of sum_n n^{-2 sigma} int_{2pi n^2}^T (t/2pi)^a dt, x = T/2pi:

    sigma <= 1/4 | 1/4 < sigma < 1/2 | sigma = 1/2 | 1/2 < sigma < 1 | 1 <= sigma
    root         | root + zeta       | critical    | zeta + root     | zeta

with root = 2 x^{1/2+(a-sigma)} / ((1-2 sigma)(3+2(a-sigma))), zeta =
zeta(2 sigma) x^a/(a+1) and critical = x^a (log(x)/(2(a+1)) + c_a).  The
error exponent is 1/4 + (a-sigma) to sigma = 1/2, a - sigma/2 below 2 and
a - 1 from 2; it carries sqrt(log T) at 1/2, and at 1 when unweighted.

c_0 = gamma - 1/2 and c_{1/2} are (gamma - 1/(2(a+1)))/(a+1).  The weighted
c_{1/2} admits two candidate values that differ by exactly 2/3;
re-deriving the closed-form integral

    int_0^U u^{1/2} (log(u)/2 + gamma) du = U^{3/2} (log(U)/3 + 2(3 gamma - 1)/9)

selects 2(3*gamma-1)/9, and the empirical moment fit confirms it, so that
is the value the weighted table uses.  The alternate value stays defined
as CRITICAL_CONSTANT_ALTERNATE, which criterion 3's fit must reject.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

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

    def residual_scale(self, T: float) -> float:
        """T to the error exponent, times sqrt(log T) where the O-term carries it:
        (value - evaluate(T)) / residual_scale(T) is the scaled residual."""
        scale = T ** self.error_exponent
        return scale * math.sqrt(math.log(T)) if self.log_factor_in_error else scale

    def laplace(self, epsilon: float) -> float:
        """int_0^inf e^{-eps T} dF of F = T * sum, term by term, with x = T/2pi
        and the tables' q in {0, 1} (q = 1 is the derivative in p):

            eps int_0^inf e^{-eps T} 2pi c x^{p+1} (log x)^q dT
                = c (2pi)^{-p} Gamma(p+2) eps^{-p-1} L^q,  L = psi(p+2) - log(2pi eps)."""
        if not epsilon > 0.0:
            raise ValueError("epsilon must be positive")
        return sum(k * epsilon ** (-p - 1.0) * (psi - math.log(TWO_PI * epsilon) if q else 1.0)
                   for k, p, q, psi in self._laplace_factors)

    @cached_property
    def _laplace_factors(self) -> tuple:
        """Each term's (c (2pi)^{-p} Gamma(p+2), p, q, psi(p+2) or None), once a table."""
        return tuple((c * TWO_PI ** -p * gamma_real(p + 2.0).value, p, q,
                      float(_mp_context().digamma(p + 2.0)) if q else None)
                     for c, p, q in self.main_terms)


def _table(sigma: float, a: float) -> Prediction:
    """Main terms of (1/T) int_1^T |R|^2 (t/2pi)^a dt; a - sigma stays grouped,
    so the weighted table's exponents and its factor 3 are exact."""
    def sqrt_term():
        return (2.0 / ((1.0 - 2.0 * sigma) * (3.0 + 2.0 * (a - sigma))), 0.5 + (a - sigma), 0)

    def zeta_term():
        return (real_zeta(2.0 * sigma).value / (a + 1.0), a, 0)

    if sigma < 0.5:  # square root alone to 1/4, then plus zeta
        terms = (sqrt_term(),) if sigma <= 0.25 else (sqrt_term(), zeta_term())
        return Prediction(terms, 0.25 + (a - sigma), False)
    if sigma == 0.5:  # critical logarithm
        const = CRITICAL_CONSTANT_DERIVED if a else EULER_GAMMA - 0.5
        return Prediction(((0.5 / (a + 1.0), a, 1), (const, a, 0)), 0.25 + (a - sigma), True)
    terms = (zeta_term(), sqrt_term()) if sigma < 1.0 else (zeta_term(),)
    # the unweighted error carries a log at sigma = 1; both edges at 2 give a - 1
    return Prediction(terms, a - 0.5 * sigma if sigma < 2.0 else a - 1.0,
                      sigma == 1.0 and not a)


def predict_weighted(sigma: float) -> Prediction:
    """The weighted table, a = sigma; its sigma = 1/2 constant is the derived 2(3g-1)/9."""
    return _table(sigma, sigma)


def predict_unweighted(sigma: float) -> Prediction:
    """The unweighted table, a = 0; sigma = 1 carries a log in its error."""
    return _table(sigma, 0.0)


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
