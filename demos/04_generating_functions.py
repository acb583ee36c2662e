"""Check the two bilinear generating functions numerically.

Both identities sum products of polynomial values against powers of omega and
collapse to a closed form involving a Bessel function of the first kind.  The
Sobolev closed form is the classical (Hardy-Hille) one at alpha = 1 and
y = -4 lam, divided by 1 + omega.  The truncated series and the closed forms
agree to around machine precision well inside the convergence disc.
"""

from lagsob import gen_fun_sobolev, hardy_hille_check, sobolev_basis

print("classical bilinear identity (negative omega keeps all factors real):")
print(f"  {'alpha':>6} {'x':>5} {'y':>5} {'omega':>7} {'series':>22} {'closed form':>22} {'rel diff':>10}")
for alpha, x, y, omega in [
    (1.0, 1.0, 1.0, -0.25),
    (0.0, 1.0, 2.0, -0.4),
    (2.0, 2.0, 2.0, -0.1),
    (0.5, 1.0, 1.0, -0.5),
]:
    lhs, rhs = hardy_hille_check(alpha, x, y, omega, 400)
    rel = abs(lhs - rhs) / abs(rhs)
    print(f"  {alpha:>6} {x:>5} {y:>5} {omega:>7} {lhs:>22.15e} {rhs:>22.15e} {rel:>10.1e}")

print("\nSobolev-basis generating function (omega in (0, 0.8]):")
print(f"  {'lam':>5} {'x':>5} {'omega':>7} {'series':>22} {'closed form':>22} {'rel diff':>10}")
for lam, x, omega in [
    (1.0, 1.0, 0.3),
    (0.5, 2.0, 0.5),
    (1.0, 0.5, 0.7),
    (1.0, 3.0, 0.8),
]:
    basis = sobolev_basis(lam, 900)
    lhs, rhs = gen_fun_sobolev(basis, x, omega)
    rel = abs(lhs - rhs) / abs(rhs)
    print(f"  {lam:>5} {x:>5} {omega:>7} {lhs:>22.15e} {rhs:>22.15e} {rel:>10.1e}")
