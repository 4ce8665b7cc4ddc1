"""Numerical certification that the differential operators annihilate what
they should: the third-order operator applied to the weighted K-kernel
integral (via analytic kernel derivatives and quadrature) and to its
closed form (via finite differences), and the cylindrical Laplacian
applied to the axial integrand pointwise.  Corrupted operators serve as
negative controls showing the tests have power.

Run:  python demos/annihilator_checks.py
"""

from multiell import (PrecisionContext, laplace_residual, laplace_residual_of,
                      ode_annihilator_residual,
                      ode_annihilator_residual_closed_form)

ctx = PrecisionContext(40)
mp = ctx.mp

print("Third-order operator on the weighted K-kernel integral:")
for a in ("0.2", "0.5", "0.8"):
    res = ode_annihilator_residual(mp.mpf(a), ctx)
    print(f"  a = {a}: residual/scale = {mp.nstr(res.residual / res.scale, 3)}"
          f"   ({'ok' if res.passed else 'FAILED'})")
print()

print("Same operator on the squared-K closed form (finite differences):")
res = ode_annihilator_residual_closed_form(mp.mpf("0.4"), ctx)
print(f"  a = 0.4: residual/scale = {mp.nstr(res.residual / res.scale, 3)}")
print()

print("Negative control: corrupting the zeroth-order coefficient must")
print("destroy the annihilation by many orders of magnitude:")
clean = ode_annihilator_residual(mp.mpf("0.5"), ctx)
bad = ode_annihilator_residual(mp.mpf("0.5"), ctx, corrupted=True)
print("  clean residual    =", mp.nstr(clean.residual, 3))
print("  corrupted residual =", mp.nstr(bad.residual, 3))
print()

print("Cylindrical Laplacian on the axial integrand at fixed theta:")
res = laplace_residual(mp.pi / 4, 1, 1, ctx)
print(f"  (pi/4, 1, 1): residual/scale = {mp.nstr(res.residual / res.scale, 3)}")
bad = laplace_residual(mp.pi / 4, 1, 1, ctx, corrupted=True)
print("  with the (1/c) d/dc term dropped:", mp.nstr(bad.residual / bad.scale, 3))
print()

print("Reference: the stencil annihilates a known axially symmetric")
print("harmonic function to the same truncation level:")
work = ctx.boosted(20).mp
res = laplace_residual_of(lambda b, c: 1 / work.sqrt(c * c + (b - 3) ** 2), 1, 1, ctx)
print("  residual/scale =", mp.nstr(res.residual / res.scale, 3), " ok" if res.passed else " FAILED")
