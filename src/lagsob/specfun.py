"""Minimal special-function kernel: Bessel J of the first kind.

The generating-function identities need J_alpha to absolute accuracy 1e-12 on
[0, 60].  bessel_j runs Miller's backward recurrence J_{nu-1} = (2nu/z) J_nu -
J_{nu+1} from order alpha + z + 60 down to mu = alpha - floor(alpha), and
normalises it by Neumann's sum (z/2)^mu = sum_k (mu+2k) Gamma(mu+k)/k! J_{mu+2k}(z),
which reads J_0 + 2 sum_k J_{2k} = 1 at mu = 0.
"""

from __future__ import annotations

import math

__all__ = ["bessel_j"]

Z_MAX = 60.0


def bessel_j(alpha: float, z: float) -> float:
    """Bessel function of the first kind J_alpha(z), alpha >= 0, 0 <= z <= 60."""
    if not (0.0 <= alpha < math.inf):
        raise ValueError(f"bessel order must be finite and >= 0, got {alpha!r}")
    if not (0.0 <= z <= Z_MAX):
        raise ValueError(f"bessel_j argument must lie in [0, {Z_MAX:g}], got {z!r}")
    if z == 0.0 or alpha >= 440.0:  # then J <= (z/2)^alpha / Gamma(alpha+1) < 2^-1075
        return float(alpha == 0.0)
    if z < 1e-9:  # (z/2)^2 < 2^-61: the leading series term is J to rounding
        return math.exp(alpha * (math.log(z) - math.log(2.0)) - math.lgamma(alpha + 1.0))
    nu = int(alpha)
    mu = alpha - nu
    top = nu + int(z) + 60
    # coef[j] = (mu + 2j) Gamma(mu + j) / j!; g is Gamma(mu + j) / j! when coef[j] is formed.
    coef, g = [math.gamma(mu + 1.0)], math.gamma(mu + 1.0)
    for j in range(1, top // 2 + 1):
        coef.append((mu + 2 * j) * g)
        g *= (mu + j) / (j + 1)
    # J at orders mu+k and mu+k+1, up to a common factor that every step
    # rescales, with the sum and the kept value, by a power of two (exact).
    cur, above, total, value = 1.0, 0.0, 0.0, 0.0
    for k in range(top, -1, -1):
        if k % 2 == 0:
            total += coef[k // 2] * cur
        if k == nu:
            value = cur
        if k:
            below, e = math.frexp(2.0 * (mu + k) / z * cur - above)
            above, cur = math.ldexp(cur, -e), below
            total, value = math.ldexp(total, -e), math.ldexp(value, -e)
    return value * (z / 2.0) ** mu / total
