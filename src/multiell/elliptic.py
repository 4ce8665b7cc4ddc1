"""Complete elliptic integral of the first kind across all parameter regimes.

Internally everything is a function of the parameter m = k^2 (k being the
modulus), which dissolves any branch ambiguity from square roots of
negative numbers.  Regimes:

  m < 0          real value, AGM with sqrt(1-m) > 1
  0 <= m < 1     real value, pi / (2 agm(1, sqrt(1-m)))
  m = 1          non-removable singularity (raises)
  m > 1          complex value, continuous from im(m) < 0, so im(K) <= 0;
                 Re K(m) = K(1/m)/sqrt(m)

Every AGM runs in one integer core, ``agm1_mp``: agm(1, kc) on Python ints
scaled by 2^wp, with one ``math.isqrt`` per step (Brent & Zimmermann,
*Modern Computer Arithmetic*, 4.8).  kc is converted in once and the mean
out once, so no step pays for mpf objects.  wp is the context's precision
plus 20 guard bits plus the binary exponent of 1/kc when kc < 1: a small kc
scaled by 2^wp must keep all its bits, or K near m = 1 loses the digits
that its logarithm magnifies.  Integer differences shrink strictly while
they exceed 1, so the loop needs no iteration cap.

The module-level functions take a PrecisionContext; the ``*_mp`` helpers
operate directly inside an mpmath context and exist for integrands that
run at the quadrature engine's internal precision.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import isqrt

from .errors import DomainError, SingularityError
from .precision import PrecisionContext
from .series import _ratio_series


def agm1_mp(mp, kc):
    """agm(1, kc) for an mpf kc > 0, returned as an mpf of context mp."""
    _, man, exp, bc = kc._mpf_
    wp = mp.prec + 20 + max(0, -(exp + bc))
    shift = wp + exp
    a = 1 << wp
    b = man << shift if shift >= 0 else man >> -shift
    while abs(a - b) > 1:
        a, b = (a + b) >> 1, isqrt(a * b)
    return mp.mpf((a, -wp))


def agm(a, b, ctx: PrecisionContext):
    """Arithmetic-geometric mean of a, b > 0."""
    hi = ctx.boosted(10)
    a = hi.mp.convert(a)
    b = hi.mp.convert(b)
    if not (a > 0 and b > 0):
        raise DomainError(f"agm requires positive arguments, got {a}, {b}")
    return ctx.reduce(a * agm1_mp(hi.mp, b / a))


def ellipk_real_mp(mp, m, *, kc=None):
    """K at parameter m < 1 inside context mp (real value).

    kc is the complementary modulus sqrt(1 - m) > 0.  A caller that can
    form it without cancellation passes it; K then carries full relative
    precision as m -> 1, however small kc is.  Without kc it is
    sqrt(1 - m), and m > 1 raises DomainError (ellipk_mp is the complex
    route).  kc < 0 raises DomainError; kc = 0 (m = 1) is K's singular
    point and raises SingularityError.
    """
    if kc is None:
        if m > 1:
            raise DomainError(f"ellipk_real_mp requires m <= 1, got {m}")
        kc = mp.sqrt(1 - m)
    if kc <= 0:
        if kc:
            raise DomainError(f"complementary modulus must be positive, got {kc}")
        raise SingularityError("K has a non-removable singularity at m = 1")
    return mp.pi / (2 * agm1_mp(mp, kc))


def ellipk_mp(mp, m):
    """K at any real parameter m != 1 inside context mp (mpf or mpc)."""
    if m == 1:
        raise SingularityError("K has a non-removable singularity at m = 1")
    if m < 1:
        return ellipk_real_mp(mp, m)
    rs = mp.sqrt(m)
    return mp.mpc(ellipk_real_mp(mp, 1 / m), -ellipk_real_mp(mp, 1 - 1 / m)) / rs


def re_k_modulus_mp(mp, x, one_minus_x):
    """Re K at modulus x > 0; for x > 1 this is K(1/x)/x (a smooth expression).

    one_minus_x is 1 - x, passed separately because a caller may know it
    more exactly than x itself (a quadrature node's distance to a panel end
    at 1).  The complementary modulus is formed from the factors 1 - x and
    1 + x, so K keeps full relative precision as x -> 1.
    """
    d = one_minus_x
    if d > 0:
        return ellipk_real_mp(mp, x * x, kc=mp.sqrt(d * (1 + x)))
    if d == 0:
        raise SingularityError("K has a non-removable singularity at modulus 1")
    return ellipk_real_mp(mp, 1 / (x * x), kc=mp.sqrt(-d * (1 + x)) / x) / x


NEGATIVE = "negative"
UNIT_INTERVAL = "unit_interval"
SUPER_UNIT = "super_unit"


@dataclass(frozen=True)
class EllipticParameter:
    """Parameter m = k^2 with its regime tag."""

    m: object
    regime: str = field(init=False)

    def __post_init__(self):
        if self.m == 1:
            raise SingularityError("parameter m = 1 is singular")
        if self.m < 0:
            tag = NEGATIVE
        elif self.m < 1:
            tag = UNIT_INTERVAL
        else:
            tag = SUPER_UNIT
        object.__setattr__(self, "regime", tag)


def _param_value(p):
    return p.m if isinstance(p, EllipticParameter) else p


def ellipk(p, ctx: PrecisionContext):
    """Complete elliptic integral K at parameter m (EllipticParameter or number).

    Returns an mpf for m < 1 and an mpc with im <= 0 for m > 1.
    """
    hi = ctx.boosted(10)
    m = hi.mp.convert(_param_value(p))
    return ctx.reduce(ellipk_mp(hi.mp, m))


def ellipk_series(p, n_terms: int, ctx: PrecisionContext):
    """Maclaurin partial sum of K through the m^N term, for |m| < 1.

    K(m) = (pi/2) [1 + sum_{n>=1} ((1/2)_n / (1)_n)^2 m^n]
    """
    hi = ctx.boosted(10)
    mp = hi.mp
    m = mp.convert(_param_value(p))
    if not abs(m) < 1:
        raise DomainError(f"the Maclaurin series requires |m| < 1, got {m}")
    return ctx.reduce(mp.pi / 2 * _ratio_series(mp, m, n_terms, power=2))


def ellipk_complementary(p, ctx: PrecisionContext):
    """K at the complementary parameter 1 - m."""
    hi = ctx.boosted(10)
    m = hi.mp.convert(_param_value(p))
    if m == 0:
        raise SingularityError("complementary K is singular at m = 0")
    return ctx.reduce(ellipk_mp(hi.mp, 1 - m))


def generating_integral_closed_form(a, ctx: PrecisionContext):
    """Closed form of the K-kernel integral with generating-function weight.

    For 0 <= a <= 1 this is [K(m)]^2 at m = (1 - sqrt(1+a^2))/2; past the
    critical point a = 1 the value is (1/a) [K(m')]^2 with m' built from
    1/a^2 (the integral does not continue smoothly across a = 1).
    """
    hi = ctx.boosted(10)
    mp = hi.mp
    a = mp.convert(a)
    if a < 0:
        raise DomainError(f"parameter must be nonnegative, got {a}")
    if a <= 1:
        m = (1 - mp.sqrt(1 + a * a)) / 2
        value = ellipk_real_mp(mp, m) ** 2
    else:
        m = (1 - mp.sqrt(1 + 1 / (a * a))) / 2
        value = ellipk_real_mp(mp, m) ** 2 / a
    return ctx.reduce(value)
