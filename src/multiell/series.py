"""Clausen-type series, its termwise a-derivative, the Legendre-projection
series, and the two level-4 Ramanujan-type series with the linear
combination bridging them back to the Clausen form.

Every partial sum here (and the Maclaurin series of K) is one routine,
``_ratio_series``: sum_n ((1/2)_n / (1)_n)^p (A n + B) z^n on the ratio
recurrence c_{n+1}/c_n = ((n + 1/2)/(n + 1))^p, with no factorials.  It
runs on Python ints at a fixed binary point 2^-wp (Brent & Zimmermann,
*Modern Computer Arithmetic*, 4.4, as mpmath's ``libhyper`` sums pFq):
z, A and B are converted to fixed point once, each step is two integer
multiplies, an exact integer ratio and a shift, and the sum becomes an
mpf once.  wp = prec + 20 + N.bit_length(): the N.bit_length() bits cover
N truncations of at most one unit each, the 20 bits cover their spread
through the recurrence and z's one rounding, which moves the sum by at
most sum n |z|^(n-1) <= 1/(1 - |z|)^2 units (about 105 at a = 0.95).  The
loop sums B + z sum_{n>=1} c_n (A n + B) z^(n-1), whose inner sum starts
from an O(1) term, so with B = 0 the result keeps its relative precision
however small z is.  The series of this module use p = 3; their
arguments are real, and a complex, infinite or nan one raises
DomainError.  The public functions share only that routine and never
call one another.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .errors import BridgeInconsistencyError, DomainError
from .precision import PrecisionContext, _real


class SeriesId(str, Enum):
    CLAUSEN = "clausen"
    RAMANUJAN_2SQRT2 = "ramanujan_2sqrt2"
    RAMANUJAN_4SQRT2 = "ramanujan_4sqrt2"

    def __str__(self):
        return self.value


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


def _clausen_arg(mp, a, name):
    """(a, -a^2) for the a-dependent series, which require a real |a| < 1."""
    a = _real(mp, a, name)
    if not abs(a) < 1:
        raise DomainError(f"{name} requires |a| < 1, got {a}")
    return a, -a * a


def clausen_sum(a, n_terms: int, ctx: PrecisionContext):
    """1 + sum_{n=1..N} c_n (-a^2)^n for |a| < 1."""
    mp = ctx.boosted(10).mp
    _, z = _clausen_arg(mp, a, "clausen_sum")
    return ctx.reduce(_ratio_series(mp, z, n_terms))


def clausen_sum_da(a, n_terms: int, ctx: PrecisionContext):
    """Termwise d/da of clausen_sum: sum_{n>=1} c_n (-1)^n 2n a^(2n-1)."""
    mp = ctx.boosted(10).mp
    a, z = _clausen_arg(mp, a, "clausen_sum_da")
    if a == 0:
        return ctx.reduce(mp.zero)  # every term carries a^(2n-1), n >= 1
    return ctx.reduce(2 * _ratio_series(mp, z, n_terms, big_a=1, big_b=0) / a)


def legendre_sum(a, n_terms: int, ctx: PrecisionContext):
    """(pi^2/4) [1 + sum_{n=1..N} (-1)^n c_n a^(2n)] for |a| < 1.

    The orthogonality projection of the generating function against the
    even-index expansion of the K kernel; equal to the weighted K-kernel
    integral (identity I13).
    """
    mp = ctx.boosted(10).mp
    _, z = _clausen_arg(mp, a, "legendre_sum")
    return ctx.reduce(mp.pi ** 2 / 4 * _ratio_series(mp, z, n_terms))


def _ramanujan_data(series_id, mp):
    """(z, A, B, target) with the series sum_{n>=0} c_n (A n + B) z^n = target."""
    if series_id == SeriesId.RAMANUJAN_2SQRT2:
        z = -mp.one / 8
        return z, mp.mpf(6), mp.one, 2 * mp.sqrt(2) / mp.pi
    if series_id == SeriesId.RAMANUJAN_4SQRT2:
        s3 = mp.sqrt(3)
        z = -(26 - 15 * s3) / 16
        return z, 30 - 6 * s3, 7 - 3 * s3, 4 * mp.sqrt(2) / mp.pi
    raise DomainError(f"not a Ramanujan-type series id: {series_id!r}")


def ramanujan_sum(series_id, n_terms: int, ctx: PrecisionContext):
    """Partial sum of the requested Ramanujan-type series through n = N."""
    mp = ctx.boosted(10).mp
    z, big_a, big_b, _ = _ramanujan_data(series_id, mp)
    return ctx.reduce(_ratio_series(mp, z, n_terms, big_a=big_a, big_b=big_b))


def ramanujan_target(series_id, ctx: PrecisionContext):
    """The closed-form value of the series (an algebraic multiple of 1/pi)."""
    hi = ctx.boosted(10)
    return ctx.reduce(_ramanujan_data(series_id, hi.mp)[3])


@dataclass(frozen=True)
class BridgeCoefficients:
    """alpha * clausen + beta * clausen_da at a_star reproduces a Ramanujan sum."""

    alpha: object
    beta: object
    a_star: object


def bridge_from_data(big_a, big_b, z, ctx: PrecisionContext):
    """Solve the coefficient match alpha + (2 beta / a*) n = A n + B.

    The n-th term of alpha*clausen + beta*clausen_da at a* is
    c_n (-a*^2)^n (alpha + 2 beta n / a*), so matching against
    c_n (A n + B) z^n requires a* = sqrt(-z), and the constant and
    n-coefficients give the 2x2 system {alpha = B, 2 beta / a* = A}.
    The match is then re-verified termwise through n = 5.
    """
    hi = ctx.boosted(10)
    mp = hi.mp
    big_a, big_b, z = (_real(mp, v, "bridge_from_data") for v in (big_a, big_b, z))
    if not z < 0:
        raise DomainError(f"bridge requires a negative series base, got z = {z}")
    a_star = mp.sqrt(-z)
    alpha = big_b
    beta = big_a * a_star / 2
    tol = mp.mpf(10) ** (-(ctx.digits - 8))
    for n in range(1, 6):
        lhs = alpha * (-a_star * a_star) ** n + beta * 2 * n * (-1) ** n * a_star ** (2 * n - 1)
        rhs = (big_a * n + big_b) * z ** n
        if abs(lhs - rhs) > tol * max(mp.one, abs(rhs)):
            raise BridgeInconsistencyError(
                f"termwise match failed at n = {n}: {mp.nstr(lhs, 20)} vs {mp.nstr(rhs, 20)}")
    return BridgeCoefficients(ctx.reduce(alpha), ctx.reduce(beta), ctx.reduce(a_star))


def linear_bridge(series_id, ctx: PrecisionContext) -> BridgeCoefficients:
    """Coefficients (alpha, beta) and point a* bridging a Ramanujan series
    to the Clausen series and its termwise a-derivative."""
    hi = ctx.boosted(10)
    z, big_a, big_b, _ = _ramanujan_data(series_id, hi.mp)
    return bridge_from_data(big_a, big_b, z, ctx)
