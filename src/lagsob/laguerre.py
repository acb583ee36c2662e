"""Generalized Laguerre polynomials: evaluation, coefficients, norms, identities.

Everything is driven by the three-term recurrence

    (n+1) L_{n+1}(x) = (2n+1+alpha-x) L_n(x) - (n+alpha) L_{n-1}(x),

which is forward-stable on the negative axis (all terms positive there, no
cancellation) -- exactly the regime the Sobolev connection coefficients need.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

__all__ = [
    "LaguerreFamily",
    "laguerre_eval",
    "laguerre_eval_all",
    "laguerre_coeffs",
    "laguerre_norm_sq",
    "laguerre_derivative",
]

# Monomial coefficients involve binom(n+alpha, n) ~ Gamma(n+alpha+1)/n!,
# which leaves double range near n = 170 for alpha of order one.
COEFF_MODE_MAX_DEGREE = 170


@dataclass(frozen=True)
class LaguerreFamily:
    """Parameter alpha of the weight x^alpha e^{-x}; requires alpha > -1."""

    alpha: float

    def __post_init__(self):
        if not (self.alpha > -1.0) or math.isinf(self.alpha):
            raise ValueError(f"Laguerre parameter must satisfy alpha > -1, got {self.alpha!r}")


def _check_finite_scalar_or_array(x):
    arr = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise ValueError("evaluation point must be finite")
    return arr


def _check_order(name: str, n, lo: int = 0, hi: float = float("inf")) -> int:
    """n as an int; a bool, a non-integer or a value outside [lo, hi] raises ValueError."""
    if isinstance(n, bool) or not isinstance(n, numbers.Integral) or not lo <= n <= hi:
        raise ValueError(f"{name} must be an integer in [{lo}, {hi}], got {n!r}")
    return int(n)


def laguerre_eval_all(family: LaguerreFamily, n_max: int, x):
    """All values L_0(x)..L_{n_max}(x) in one recurrence pass.

    Returns an array of shape (n_max+1,) for scalar x, or
    (n_max+1,) + x.shape for array x.  Both paths do the arithmetic of
    ((2n+1+alpha - x) L_n - (n+alpha) L_{n-1}) / (n+1) in that order, so
    their values are bit-identical to it.
    """
    n_max = _check_order("n_max", n_max)
    alpha = family.alpha
    xa = _check_finite_scalar_or_array(x)
    if xa.ndim == 0:
        # Python floats: in-place updates of 1-element views cost more than the arithmetic.
        x = float(xa)
        vals = [1.0, 1.0 + alpha - x][: n_max + 1]
        for n in range(1, n_max):
            vals.append(((2 * n + 1 + alpha - x) * vals[n] - (n + alpha) * vals[n - 1]) / (n + 1))
        return np.array(vals)
    out = np.empty((n_max + 1,) + xa.shape)
    rows = out.reshape(n_max + 1, xa.size)
    xf = xa.reshape(-1)
    rows[0] = 1.0
    # One pass seeds row n+1 with (2n+1+alpha) - x for every n < n_max: the
    # floats of the scalar expression, since 2n+1 is exact.  Row 1 is final.
    np.subtract((2 * np.arange(n_max) + 1 + alpha)[:, None], xf, out=rows[1:])
    tmp = np.empty_like(xf)
    # One view per row: rows n-1 and n are carried, row n+1 comes from the iterator.
    it = iter(rows)
    lo = next(it)
    mid = next(it, lo)
    for n, r in enumerate(it, start=1):
        r *= mid
        np.multiply(n + alpha, lo, tmp)
        r -= tmp
        r /= n + 1
        lo, mid = mid, r
    return out


def laguerre_eval(family: LaguerreFamily, n: int, x):
    """L_n^{(alpha)}(x) by forward recurrence from L_{-1} = 0, L_0 = 1."""
    n = _check_order("n", n)
    return laguerre_eval_all(family, n, x)[n]


def laguerre_coeffs(family: LaguerreFamily, n: int) -> np.polynomial.Polynomial:
    """L_n^{(alpha)} as a numpy Polynomial: monomial coefficients, ascending powers.

    c_0 = binom(n+alpha, n) and c_{k+1}/c_k = -(n-k) / ((k+1)(k+alpha+1)),
    so the whole vector follows from one ratio sweep.  Rejected for n > 170
    where binom(n+alpha, n) leaves double range (use the recurrence
    evaluation instead, which has no such limit).
    """
    n = _check_order("n", n, hi=COEFF_MODE_MAX_DEGREE)
    alpha = family.alpha
    if alpha == int(alpha) and alpha >= 0:
        c0 = float(math.comb(n + int(alpha), n))
    else:
        c0 = math.exp(math.lgamma(n + alpha + 1) - math.lgamma(alpha + 1) - math.lgamma(n + 1))
    c = np.empty(n + 1)
    c[0] = c0
    for k in range(n):
        c[k + 1] = -c[k] * (n - k) / ((k + 1) * (k + alpha + 1))
    return np.polynomial.Polynomial(c)


def laguerre_norm_sq(family: LaguerreFamily, n: int) -> float:
    """Squared weighted L2 norm Gamma(n+alpha+1)/n!, via log-gamma differences."""
    n = _check_order("n", n)
    return math.exp(math.lgamma(n + family.alpha + 1) - math.lgamma(n + 1))


def laguerre_derivative(family: LaguerreFamily, n: int, x):
    """d/dx L_n^{(alpha)}(x) = -L_{n-1}^{(alpha+1)}(x); zero for n = 0."""
    n = _check_order("n", n)
    if n == 0:
        xa = _check_finite_scalar_or_array(x)
        return np.zeros(xa.shape) if xa.shape else 0.0
    shifted = LaguerreFamily(family.alpha + 1.0)
    return -laguerre_eval(shifted, n - 1, x)

