"""Complete elliptic integral of the first kind across all parameter regimes.

K's input is its complementary modulus kc = sqrt(1 - m) > 0, m = k^2 being
the parameter and k the modulus: K = pi / (2 agm(1, kc)).  Each caller
forms kc from the quantities it holds, without the cancellation that 1 - m
suffers next to m = 1.  Among the ``*_mp`` helpers only ``ellipk_mp``
takes m, and it serves every regime:

  m < 0          real value, kc = sqrt(1-m) > 1
  0 <= m < 1     real value, kc = sqrt(1-m)
  m = 1          non-removable singularity (kc = 0 raises)
  m > 1          complex value, continuous from im(m) < 0, so im(K) <= 0;
                 K(m) = (K(1/m) - i K(1 - 1/m)) / sqrt(m)

Every AGM runs in one integer core, ``agm_int``: the mean of two positive
Python ints at a shared binary scale, with one ``math.isqrt`` per step
(Brent & Zimmermann, *Modern Computer Arithmetic*, 4.8).  It steps only
until delta = (a - b)/(a + b) has delta^8 below the scale of the larger
argument, then closes with the series agm(a, b) = m pi / (2 K(delta)),
m = (a + b)/2, through its delta^6 term (Borwein & Borwein, *Pi and the
AGM*, 1987): about two steps fewer than running the integers together.
The steps converge quadratically and the integers reach delta = 0 at the
latest, so the loop needs no iteration cap.  It has two callers, each of
which converts its inputs in once and the mean out once, so no step pays
for mpf objects:

* ``agm1_mp``, agm(1, kc) behind every K here, scales by 2^wp, wp being
  the context's precision plus 20 guard bits plus the binary exponent of
  1/kc when kc < 1: a small kc scaled by 2^wp must keep all its bits, or K
  near m = 1 loses the digits that its logarithm magnifies;
* the axial kernel (kernels.axial_t_kernel), which forms no kc at all: by
  homogeneity K(kc)/sqrt(den2) = (pi/2) / agm(sqrt(den2), sqrt(den2) kc),
  and it takes both means' arguments as ints at a scale chosen from the
  smaller one, as agm1_mp chooses wp from kc.

K's Maclaurin series is the p = 2 case of ``_ratio_series``, the one
routine that also sums every series of the series module (p = 3):
sum_n ((1/2)_n / (1)_n)^p (A n + B) z^n on the ratio recurrence
c_{n+1}/c_n = ((n + 1/2)/(n + 1))^p, with no factorials.  It runs on
Python ints at a fixed binary point 2^-wp (Brent & Zimmermann, 4.4, as
mpmath's ``libhyper`` sums pFq): z, A and B are converted to fixed point
once, each step is two integer multiplies, an exact integer ratio and a
shift, and the sum becomes an mpf once.  wp = prec + 20 + N.bit_length():
the N.bit_length() bits cover N truncations of at most one unit each, the
20 bits cover their spread through the recurrence and z's one rounding,
which moves the sum by at most sum n |z|^(n-1) <= 1/(1 - |z|)^2 units
(about 105 at a = 0.95).  The loop sums B + z sum_{n>=1} c_n (A n + B)
z^(n-1), whose inner sum starts from an O(1) term, so with B = 0 the
result keeps its relative precision however small z is.

The module-level functions take a PrecisionContext and a finite number m
(inf or nan raises DomainError); the ``*_mp`` helpers operate inside an
mpmath context, for integrands at the quadrature engine's precision.
"""

from __future__ import annotations

from math import isqrt

from .errors import DomainError, SingularityError
from .precision import PrecisionContext, _count, _real


def agm_int(a: int, b: int) -> int:
    """agm(a, b) of two ints a, b > 0 at one binary scale, as an int at that scale.

    The steps run on a and b with three guard bits until delta =
    (a - b)/(a + b) has delta^8 < 2^-n, n the bit length of a + b, so the
    test is sized on the larger argument in either order.  Then m =
    (a + b)/2 over 1 + delta^2/4 + 9 delta^4/64 + 25 delta^6/256, the
    series of pi/(2 K(delta)), leaves out about 0.075 delta^8 m, below a
    tenth of a unit.  Each step truncates by at most a guard unit, and the
    guard bits are rounded off once, so the mean is within one unit of
    the exact one M, or of M/sqrt(ab) units where b/a is far from 1 (the
    geometric means hold fewer bits than the larger argument); the
    caller's scale sets how many bits that is.
    """
    a, b = a << 3, b << 3
    while True:
        s, d = a + b, a - b
        n = s.bit_length()
        if 8 * abs(d).bit_length() <= 7 * n - 8:  # delta^8 < 2^-n
            break
        a, b = s >> 1, isqrt(a * b)
    x = (d * d << n) // (s * s)  # delta^2 2^n
    mean = (s << n - 1) // ((1 << n) + (x >> 2) + (9 * x * x >> n + 6)
                            + (25 * x * x * x >> 2 * n + 8))
    return (mean >> 2) + 1 >> 1


def agm1_mp(mp, kc):
    """agm(1, kc) for an mpf kc > 0, returned as an mpf of context mp."""
    _, man, exp, bc = kc._mpf_
    wp = mp.prec + 20 + max(0, -(exp + bc))
    shift = wp + exp
    b = man << shift if shift >= 0 else man >> -shift
    return mp.mpf((agm_int(1 << wp, b), -wp))


def agm(a, b, ctx: PrecisionContext):
    """Arithmetic-geometric mean of a, b > 0."""
    hi = ctx.boosted(10)
    a, b = (_real(hi.mp, v, "agm") for v in (a, b))
    if not (a > 0 and b > 0):
        raise DomainError(f"agm requires positive arguments, got {a}, {b}")
    return ctx.reduce(a * agm1_mp(hi.mp, b / a))


def ellipk_real_mp(mp, kc):
    """K = pi / (2 agm(1, kc)) at complementary modulus kc > 0, inside context mp.

    kc is sqrt(1 - m) for the parameter m < 1.  Each caller forms it
    without cancellation, so K keeps full relative precision as m -> 1,
    however small kc is.  kc < 0 raises DomainError; kc = 0 (m = 1) is K's
    singular point and raises SingularityError.
    """
    if kc <= 0:
        if kc:
            raise DomainError(f"complementary modulus must be positive, got {kc}")
        raise SingularityError("K has a non-removable singularity at m = 1")
    return mp.pi / (2 * agm1_mp(mp, kc))


def ellipk_mp(mp, m):
    """K at any real parameter m != 1 inside context mp (mpf or mpc).

    The one route that takes m: for m > 1 the value is
    (K(1/m) - i K(1 - 1/m)) / sqrt(m), whose complementary moduli are
    sqrt(m - 1)/sqrt(m) and 1/sqrt(m).
    """
    if m < 1:
        return ellipk_real_mp(mp, mp.sqrt(1 - m))
    rs = mp.sqrt(m)
    return mp.mpc(ellipk_real_mp(mp, mp.sqrt(m - 1) / rs), -ellipk_real_mp(mp, 1 / rs)) / rs


def re_k_modulus_mp(mp, x, one_minus_x):
    """Re K at modulus x > 0; for x > 1 this is K(1/x)/x (a smooth expression).

    one_minus_x is 1 - x, passed separately because a caller may know it
    more exactly than x itself (a quadrature node's distance to a panel end
    at 1).  The complementary modulus is formed from the factors 1 - x and
    1 + x, so K keeps full relative precision as x -> 1; at x = 1 it is 0,
    K's singular point.
    """
    d = one_minus_x
    if d > 0:
        return ellipk_real_mp(mp, mp.sqrt(d * (1 + x)))
    return ellipk_real_mp(mp, mp.sqrt(-d * (1 + x)) / x) / x


def ellipk(m, ctx: PrecisionContext):
    """Complete elliptic integral K at a real parameter m != 1.

    Returns an mpf for m < 1 and an mpc with im <= 0 for m > 1.  A complex
    m raises DomainError.
    """
    hi = ctx.boosted(10)
    return ctx.reduce(ellipk_mp(hi.mp, _real(hi.mp, m, "ellipk")))


def _ratio_series(mp, z, n_terms: int, power: int = 3, big_a=0, big_b=1):
    """sum_{n=0..N} ((1/2)_n / (1)_n)^power (A n + B) z^n for real z, A, B in context mp."""
    wp = mp.prec + 20 + n_terms.bit_length()
    zf, af, bf = (mp.convert(v).to_fixed(wp) for v in (z, big_a, big_b))
    base = 1 << wp  # c_{n-1} z^(n-1), then c_n z^(n-1)
    acc = 0  # sum_{m=1..n} c_m (A m + B) z^(m-1)
    for n in range(1, n_terms + 1):
        base = base * (2 * n - 1) ** power // (2 * n) ** power
        acc += (base * (af * n + bf)) >> wp
        base = (base * zf) >> wp
    return big_b + z * mp.mpf((acc, -wp))


def ellipk_series(m, n_terms: int, ctx: PrecisionContext):
    """Maclaurin partial sum of K through the m^N term, for real |m| < 1.

    K(m) = (pi/2) [1 + sum_{n>=1} ((1/2)_n / (1)_n)^2 m^n], summed on
    fixed-point integers by ``_ratio_series`` with p = 2.  A complex m, or
    a term count that is not a nonnegative int, raises DomainError.
    """
    hi = ctx.boosted(10)
    mp = hi.mp
    m = _real(mp, m, "ellipk_series")
    if not abs(m) < 1:
        raise DomainError(f"ellipk_series requires |m| < 1, got {m}")
    return ctx.reduce(mp.pi / 2 * _ratio_series(mp, m, _count(n_terms, "ellipk_series"), power=2))


def ellipk_complementary(m, ctx: PrecisionContext):
    """K at the complementary parameter 1 - m, singular at m = 0.

    For m > 0 its complementary modulus is sqrt(m), exact however small m
    is; m < 0 takes the complex route at 1 - m > 1.
    """
    hi = ctx.boosted(10)
    mp = hi.mp
    m = _real(mp, m, "ellipk_complementary")
    value = ellipk_real_mp(mp, mp.sqrt(m)) if m >= 0 else ellipk_mp(mp, 1 - m)
    return ctx.reduce(value)


def generating_integral_closed_form(a, ctx: PrecisionContext):
    """Closed form of the K-kernel integral with generating-function weight.

    For 0 <= a <= 1 this is [K(m)]^2 at m = (1 - sqrt(1+a^2))/2, whose
    complementary modulus is sqrt((1 + sqrt(1+a^2))/2); past the critical
    point a = 1 the value is (1/a) [K(m')]^2 with m' built from 1/a^2 (the
    integral does not continue smoothly across a = 1).
    """
    hi = ctx.boosted(10)
    mp = hi.mp
    a = _real(mp, a, "generating_integral_closed_form")
    if a < 0:
        raise DomainError(f"parameter must be nonnegative, got {a}")
    scale = max(a, mp.one)  # a/scale^2 is a up to a = 1, then 1/a
    s = a / (scale * scale)
    kc = mp.sqrt((1 + mp.sqrt(1 + s * s)) / 2)
    return ctx.reduce(ellipk_real_mp(mp, kc) ** 2 / scale)
