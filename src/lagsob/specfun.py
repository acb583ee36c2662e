"""Minimal special-function kernel: Bessel J of the first kind.

The generating-function identities need J_alpha to absolute accuracy 1e-12 on
[0, 60].  scipy's jv (cephes/AMOS) meets that on the whole range: against a
40-digit mpmath oracle its absolute error stays below 1e-14 for the orders
the identities use.  bessel_j is jv, imported on first call, behind the checks.
"""

from __future__ import annotations

import math

__all__ = ["bessel_j"]

Z_MAX = 60.0


def bessel_j(alpha: float, z: float) -> float:
    """Bessel function of the first kind J_alpha(z), alpha >= 0, 0 <= z <= 60."""
    if not (alpha >= 0.0) or math.isnan(alpha):
        raise ValueError(f"bessel order must be >= 0, got {alpha!r}")
    if not (0.0 <= z <= Z_MAX):
        raise ValueError(f"bessel_j argument must lie in [0, {Z_MAX:g}], got {z!r}")
    from scipy import special
    value = float(special.jv(alpha, z))
    if not math.isfinite(value):  # pragma: no cover - jv is finite on this range
        raise RuntimeError(f"bessel_j failed for alpha={alpha}, z={z}")
    return value
