"""Generalized Laguerre polynomials: evaluation, coefficients, norms, identities.

Everything is driven by the three-term recurrence

    (n+1) L_{n+1}(x) = (2n+1+alpha-x) L_n(x) - (n+alpha) L_{n-1}(x),

which is forward-stable on the negative axis (all terms positive there, no
cancellation) -- exactly the regime the Sobolev connection coefficients need.
"""

from __future__ import annotations

import math
import mmap
import numbers
import threading
from collections import OrderedDict
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


def _recur(rows: np.ndarray, xf: np.ndarray, alpha: float, k: int) -> None:
    """Rows k+1..N of the table rows (N+1 by len(xf)) from its rows 0..k, in place.

    Each row n+1 is seeded with (2n+1+alpha) - x, the floats of the scalar
    expression since 2n+1 is exact, then finished as
    ((2n+1+alpha - x) L_n - (n+alpha) L_{n-1}) / (n+1); row 1 is final once
    seeded.  The result does not depend on k.
    """
    np.subtract((2 * np.arange(k, len(rows) - 1) + 1 + alpha)[:, None], xf, out=rows[k + 1 :])
    tmp = np.empty_like(xf)
    # One view per row: rows n-1 and n are carried, row n+1 comes from the iterator.
    start = max(k, 1)
    it = iter(rows[start - 1 :])
    lo = next(it)
    mid = next(it, lo)
    for n, r in enumerate(it, start=start):
        r *= mid
        np.multiply(n + alpha, lo, tmp)
        r -= tmp
        r /= n + 1
        lo, mid = mid, r


# Point sets of at most this many points keep their tables between calls: the
# largest rule of the adaptive policy (quadrature.M_MAX, which this module
# cannot import), so every rule's nodes share their rows within and across
# solves.  Larger grids are tabulated afresh.
_CACHE_MAX_POINTS = 256


class _TableCache:
    """Least-recently-used store of read-only, all-finite tables L_0..L_N, keyed on
    (alpha, the float64 bytes of the points).

    Each table lives in its own anonymous memory map, outside the malloc heap:
    long-lived entries there would pin the heap's top, so the freed temporaries
    of every other caller would stay mapped and its later large allocations
    would page-fault differently.  An entry costs its whole pages, its key bytes
    and a fixed overhead, and the costs stay within budget.  Stored arrays are
    never written: a deeper table replaces its entry whole, so concurrent
    callers see a complete table or none.
    """

    # Bytes charged per entry besides its pages and key: the dict slot and array header.
    OVERHEAD = 256

    def __init__(self, budget: int):
        self.budget = budget
        self.nbytes = 0
        self._entries: OrderedDict = OrderedDict()
        self._lock = threading.Lock()

    def _cost(self, key, table) -> int:
        return -(-table.nbytes // mmap.PAGESIZE) * mmap.PAGESIZE + len(key[1]) + self.OVERHEAD

    def get(self, key):
        with self._lock:
            table = self._entries.get(key)
            if table is not None:
                self._entries.move_to_end(key)
            return table

    def put(self, key, table: np.ndarray) -> None:
        """Store a read-only copy of table unless it is too large or an entry is as deep."""
        cost = self._cost(key, table)
        if cost > self.budget:
            return
        stored = np.frombuffer(mmap.mmap(-1, table.nbytes), dtype=table.dtype).reshape(table.shape)
        stored[...] = table
        stored.setflags(write=False)
        with self._lock:
            old = self._entries.get(key)
            if old is not None:
                if len(old) >= len(stored):
                    return
                self.nbytes -= self._cost(key, old)
            self._entries[key] = stored
            self._entries.move_to_end(key)
            self.nbytes += cost
            while self.nbytes > self.budget:
                self.nbytes -= self._cost(*self._entries.popitem(last=False))

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self.nbytes = 0


_TABLES = _TableCache(8 << 20)


def _cached_rows(alpha: float, n_max: int, xf: np.ndarray) -> np.ndarray:
    """A fresh (n_max+1) x len(xf) table: rows of the cached table of xf, continued by
    _recur past its depth; the result is stored if every new row is finite."""
    key = (alpha, xf.tobytes())
    head = _TABLES.get(key)
    if head is not None and len(head) > n_max:
        return head[: n_max + 1].copy()
    rows = np.empty((n_max + 1, xf.size))
    k = 0 if head is None else len(head) - 1
    rows[: k + 1] = 1.0 if head is None else head
    _recur(rows, xf, alpha, k)
    if np.isfinite(rows[k + 1 :]).all():
        _TABLES.put(key, rows)
    return rows


def laguerre_eval_all(family: LaguerreFamily, n_max: int, x):
    """All values L_0(x)..L_{n_max}(x) in one recurrence pass.

    Returns an array of shape (n_max+1,) for scalar x, or
    (n_max+1,) + x.shape for array x.  Both paths do the arithmetic of
    ((2n+1+alpha - x) L_n - (n+alpha) L_{n-1}) / (n+1) in that order, so
    their values are bit-identical to it.  Arrays of at most 256 points reuse
    the rows of earlier calls on the same points; every result is a fresh array.
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
    xf = xa.reshape(-1)
    if 0 < xf.size <= _CACHE_MAX_POINTS:
        rows = _cached_rows(float(alpha), n_max, xf)
    else:
        rows = np.empty((n_max + 1, xf.size))
        rows[0] = 1.0
        _recur(rows, xf, alpha, 0)
    return rows.reshape((n_max + 1,) + xa.shape)


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

