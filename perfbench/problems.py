"""Seeded manufactured problems for -u'' + (lam/x) u = f with closed-form f.

Two families, each with u(0) = 0 and u -> 0 at infinity:

* ``exp``: u = x e^{-cx} cos(kx), exponential decay;
* ``alg``: u = x cos(kx) / (1+x)^p, algebraic decay.

f = -u'' + lam u / x is derived by hand below and checked against mpmath
differentiation in ``tests/test_bench_problems.py``.  Every problem comes both
as numpy callables (library workloads) and as expression strings in the
``lagsob`` expression language (the ``--f-expr`` CLI ops).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

FAMILIES = ("exp", "alg")

LAM_LOG10 = (-2.0, 2.0)
K_RANGE = (0.5, 1.5)
C_RANGE = (1.0, 2.0)
P_CHOICES = (3, 4, 5)


@dataclass(frozen=True)
class Manufactured:
    family: str
    lam: float
    k: float
    c: float = 0.0  # exp family only
    p: int = 0  # alg family only

    def u(self, x):
        x = np.asarray(x, dtype=float)
        if self.family == "exp":
            return x * np.exp(-self.c * x) * np.cos(self.k * x)
        return x * np.cos(self.k * x) / (1.0 + x) ** self.p

    def du(self, x):
        x = np.asarray(x, dtype=float)
        kx = self.k * x
        if self.family == "exp":
            c = self.c
            return np.exp(-c * x) * ((1.0 - c * x) * np.cos(kx) - kx * np.sin(kx))
        s = 1.0 + x
        return ((s - self.p * x) * np.cos(kx) - kx * s * np.sin(kx)) / s ** (self.p + 1)

    def f(self, x):
        x = np.asarray(x, dtype=float)
        k, lam = self.k, self.lam
        kx = k * x
        if self.family == "exp":
            c = self.c
            return np.exp(-c * x) * (
                (2.0 * c + lam - (c * c - k * k) * x) * np.cos(kx)
                - 2.0 * k * (c * x - 1.0) * np.sin(kx)
            )
        p = self.p
        s = 1.0 + x
        return (
            (p * (2.0 - (p - 1) * x) + (k * k * x + lam) * s * s) * np.cos(kx)
            + 2.0 * k * s * (s - p * x) * np.sin(kx)
        ) / s ** (p + 2)

    def expressions(self) -> tuple[str, str, str]:
        """(f, u, u') in the lagsob expression language, 17 significant digits."""
        K, L = _num(self.k), _num(self.lam)
        if self.family == "exp":
            C = _num(self.c)
            a0 = _num(2.0 * self.c + self.lam)
            a1 = _num(self.c * self.c - self.k * self.k)
            b = _num(2.0 * self.k)
            f = (f"exp(-{C}*x)*(({a0} - {a1}*x)*cos({K}*x)"
                 f" - {b}*({C}*x - 1)*sin({K}*x))")
            u = f"x*exp(-{C}*x)*cos({K}*x)"
            du = f"exp(-{C}*x)*((1 - {C}*x)*cos({K}*x) - {K}*x*sin({K}*x))"
            return f, u, du
        p = self.p
        k2, b = _num(self.k * self.k), _num(2.0 * self.k)
        f = (f"(({p}*(2 - {p - 1}*x) + ({k2}*x + {L})*(1 + x)^2)*cos({K}*x)"
             f" + {b}*(1 + x)*(1 + x - {p}*x)*sin({K}*x))/(1 + x)^{p + 2}")
        u = f"x*cos({K}*x)/(1 + x)^{p}"
        du = f"((1 + x - {p}*x)*cos({K}*x) - {K}*x*(1 + x)*sin({K}*x))/(1 + x)^{p + 1}"
        return f, u, du


def _num(v: float) -> str:
    text = f"{v:.17g}"
    return f"({text})" if v < 0 else text


# Kronecker steps (fractional parts of sqrt 2, 3, 5) of the low-discrepancy
# sequence behind ``stream``.
_STEPS = (math.sqrt(2.0) % 1.0, math.sqrt(3.0) % 1.0, math.sqrt(5.0) % 1.0)


def kronecker(offsets, j: int) -> list[float]:
    """j-th point of the shifted Kronecker sequence frac(offset_d + j * step_d)."""
    return [float(o + j * a) % 1.0 for o, a in zip(offsets, _STEPS)]


def stream(seed: int, family: str, j: int) -> Manufactured:
    """j-th problem of a family's seeded low-discrepancy stream.

    Over j the parameters fill their box evenly (lam log-uniform in
    LAM_LOG10, k and c uniform, p from P_CHOICES), so averages over a few
    dozen problems depend little on the seed.
    """
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}")
    offsets = np.random.default_rng([seed, 9, FAMILIES.index(family)]).random(3)
    u_lam, u_k, u_3 = kronecker(offsets, j)
    lam = 10.0 ** (LAM_LOG10[0] + (LAM_LOG10[1] - LAM_LOG10[0]) * u_lam)
    k = K_RANGE[0] + (K_RANGE[1] - K_RANGE[0]) * u_k
    if family == "exp":
        return Manufactured("exp", lam=lam, k=k, c=C_RANGE[0] + (C_RANGE[1] - C_RANGE[0]) * u_3)
    return Manufactured("alg", lam=lam, k=k, p=P_CHOICES[int(len(P_CHOICES) * u_3)])


def digits(rel_err: float) -> float:
    """-log10 of a relative error, capped at 17 digits for an exact match."""
    return 17.0 if rel_err <= 1e-17 else -math.log10(rel_err)
