"""Build the Laguerre-Sobolev basis and inspect its first members.

The polynomials S_n are produced by one forward recursion from the classical
Laguerre family: S_n = L_n^{(1)} - a_{n-1} S_{n-1}.  The basis takes the
scalar coefficients a_n from their closed form as a ratio of Laguerre values
at -4*lambda, and its squared norms from a_n s(n) = (n+1)(n+2)/4.  The a_n
also obey a two-term recurrence -- both forms are printed side by side.
"""

import numpy as np

from lagsob import (
    connection_asymptotic,
    connection_recurrence,
    sobolev_basis,
    sobolev_coeffs,
    sobolev_eval_all,
)

lam = 1.0
basis = sobolev_basis(lam, 10)

print(f"lambda = {lam}")
print("\nFirst Sobolev polynomials (monomial coefficients, constant term first):")
for n in range(5):
    c = sobolev_coeffs(basis, n).coef
    parts = []
    for k, v in enumerate(c):
        body = f"{abs(v):.6g}" + (f"*x^{k}" if k else "")
        parts.append(("- " if v < 0 else "+ " if parts else "") + body)
    print(f"  S_{n}(x) = " + " ".join(parts))

print("\nConnection coefficients, recurrence vs closed ratio form:")
print(f"  {'n':>4} {'a_n (recurrence)':>20} {'a_n (ratio)':>20} {'fixed point, O(1/n)':>20}")
a_recur = connection_recurrence(lam, 10)
for n in range(10):
    a_rec = a_recur[n]
    a_rat = basis.a[n]
    asym = connection_asymptotic(lam, n)
    print(f"  {n:>4} {a_rec:>20.15f} {a_rat:>20.15f} {asym:>20.15f}")

print("\nSquared energy norms s(n) of S_n(x) x e^{-x/2}:")
print("  " + "  ".join(f"{v:.6f}" for v in basis.s[:6]))

print("\nSample values on a small grid:")
xs = np.array([0.0, 1.0, 2.0, 5.0])
table = sobolev_eval_all(basis, 4, xs)
for n in (1, 2, 4):
    print(f"  S_{n} at x={xs.tolist()}: " + "  ".join(f"{v:+.6f}" for v in table[n]))
