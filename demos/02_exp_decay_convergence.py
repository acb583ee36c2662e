"""Solve -u'' + u/x = f with an exponentially decaying solution.

The data f is chosen so that u(x) = x cos(x) e^{-x}.  Every Fourier-Sobolev
coefficient comes from one weighted integral of f plus a scalar recurrence;
the squared energy-norm errors eps_n then drop at a spectral rate, reaching
about 6.4e-8 by n = 20.
"""

import numpy as np

from lagsob import builtin_problem, partial_sum, sobolev_error, solve

problem = builtin_problem("exp-decay")
sol = solve(problem, n_max=20)

print("Fourier-Sobolev coefficients uhat_n and squared errors eps_n:")
print(f"  {'n':>3} {'uhat_n':>22} {'eps_n':>14} {'log10 eps_n':>12}")
for n in range(21):
    e = sobolev_error(sol, n)
    print(f"  {n:>3} {sol.uhat[n]:>22.15e} {e:>14.6e} {np.log10(e):>12.4f}")

grid = np.linspace(0.0, 20.0, 401)
exact = problem.exact(grid)
for n in (6, 9, 12, 15, 20):
    err = np.max(np.abs(partial_sum(sol, n, grid) - exact))
    print(f"max |S_{n}(u,x) - u(x)| on [0, 20]: {err:.3e}")
