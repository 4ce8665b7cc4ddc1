"""Walk through the elliptic building blocks: AGM, K in every parameter
regime, the Maclaurin series, and the squared-K closed form.

Run:  python demos/elliptic_regimes.py
"""

from multiell import (PrecisionContext, agm, ellipk, ellipk_complementary,
                      ellipk_series, generating_integral_closed_form)

ctx = PrecisionContext(40)
mp = ctx.mp
show = lambda x: mp.nstr(x, 30)

print("pi to 40 digits:", mp.nstr(+mp.pi, 40))
print()

print("The arithmetic-geometric mean drives every K evaluation:")
print("  agm(1, sqrt 2) =", show(agm(1, mp.sqrt(2), ctx)))
print("  K(m) = pi / (2 agm(1, sqrt(1-m)))")
print()

print("K across the parameter regimes (m = k^2):")
for m in (mp.mpf("-2"), mp.mpf(0), mp.mpf("0.5"), mp.mpf("0.9999")):
    print(f"  K({mp.nstr(m, 6):>8}) = {show(ellipk(m, ctx))}")
val = ellipk(mp.mpf(4), ctx)
print(f"  K(     4.0) = {show(val)}   (complex, im <= 0)")
print("     real part equals K(1/4)/2:", show(ellipk(mp.mpf("0.25"), ctx) / 2))
print()

print("Maclaurin partial sums converge to the AGM value for |m| < 1:")
m = mp.mpf("0.5")
target = ellipk(m, ctx)
for n in (5, 20, 80, 320):
    gap = abs(ellipk_series(m, n, ctx) - target)
    print(f"  N = {n:4d}   |series - AGM| = {mp.nstr(gap, 3)}")
print()

print("Complementary parameter: K'(m) = K(1-m), self-dual at m = 1/2:")
print("  K'(1/2) - K(1/2) =", show(ellipk_complementary(m, ctx) - ellipk(m, ctx)))
print()

print("The squared-K closed form behind the weighted kernel integral:")
for a in (mp.mpf(0), mp.mpf("0.5"), mp.mpf(2)):
    print(f"  a = {mp.nstr(a, 3):>4}: {show(generating_integral_closed_form(a, ctx))}")
print("  (a = 0 gives pi^2/4 =", show(mp.pi ** 2 / 4) + ")")
