"""Clausen-type series, its termwise a-derivative, the Legendre-projection
series, and the two level-4 Ramanujan-type series with the linear
combination bridging them back to the Clausen form.

Every partial sum here is sum_n ((1/2)_n / (1)_n)^3 (A n + B) z^n, summed
on fixed-point integers by ``elliptic._ratio_series`` (whose p = 2 case is
K's Maclaurin series).  The Ramanujan-type series take z, A, B and their
closed form T/pi from the singular-value table, ``singular.SINGULAR_VALUES``,
at the r that SERIES_R gives each SeriesId.  The series' arguments are
real, and a complex, infinite or nan one raises DomainError; a term count
that is not a nonnegative int raises DomainError too.  The public
functions share only that routine and never call one another.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .elliptic import _ratio_series
from .errors import DomainError
from .precision import PrecisionContext, _choice, _count, _real
from .singular import SINGULAR_VALUES


class SeriesId(str, Enum):
    RAMANUJAN_2SQRT2 = "ramanujan_2sqrt2"
    RAMANUJAN_4SQRT2 = "ramanujan_4sqrt2"

    def __str__(self):
        return self.value


# the singular value r whose table entry holds each series' (z, A, B, T)
SERIES_R = {SeriesId.RAMANUJAN_2SQRT2: 4, SeriesId.RAMANUJAN_4SQRT2: 12}


def _clausen_arg(mp, a, n_terms, name):
    """(a, -a^2, N) for the a-dependent series, which require a real |a| < 1 and a count N."""
    a = _real(mp, a, name)
    if not abs(a) < 1:
        raise DomainError(f"{name} requires |a| < 1, got {a}")
    return a, -a * a, _count(n_terms, name)


def clausen_sum(a, n_terms: int, ctx: PrecisionContext):
    """1 + sum_{n=1..N} c_n (-a^2)^n for |a| < 1."""
    mp = ctx.boosted(10).mp
    _, z, n_terms = _clausen_arg(mp, a, n_terms, "clausen_sum")
    return ctx.reduce(_ratio_series(mp, z, n_terms))


def clausen_sum_da(a, n_terms: int, ctx: PrecisionContext):
    """Termwise d/da of clausen_sum: sum_{n>=1} c_n (-1)^n 2n a^(2n-1)."""
    mp = ctx.boosted(10).mp
    a, z, n_terms = _clausen_arg(mp, a, n_terms, "clausen_sum_da")
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
    _, z, n_terms = _clausen_arg(mp, a, n_terms, "legendre_sum")
    return ctx.reduce(mp.pi ** 2 / 4 * _ratio_series(mp, z, n_terms))


def _ramanujan_data(series_id, mp):
    """(z, A, B, T) with the series sum_{n>=0} c_n (A n + B) z^n = T/pi."""
    return SINGULAR_VALUES[_choice(SERIES_R, series_id, "Ramanujan-type series")].series(mp)


def ramanujan_sum(series_id, n_terms: int, ctx: PrecisionContext):
    """Partial sum of the requested Ramanujan-type series through n = N."""
    mp = ctx.boosted(10).mp
    z, big_a, big_b, _ = _ramanujan_data(series_id, mp)
    n_terms = _count(n_terms, "ramanujan_sum")
    return ctx.reduce(_ratio_series(mp, z, n_terms, big_a=big_a, big_b=big_b))


def ramanujan_target(series_id, ctx: PrecisionContext):
    """The closed-form value of the series (an algebraic multiple of 1/pi)."""
    mp = ctx.boosted(10).mp
    return ctx.reduce(_ramanujan_data(series_id, mp)[3] / mp.pi)


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
    """
    mp = ctx.boosted(10).mp
    big_a, big_b, z = (_real(mp, v, "bridge_from_data") for v in (big_a, big_b, z))
    if not z < 0:
        raise DomainError(f"bridge requires a negative series base, got z = {z}")
    a_star = mp.sqrt(-z)
    return BridgeCoefficients(ctx.reduce(big_b), ctx.reduce(big_a * a_star / 2),
                              ctx.reduce(a_star))


def linear_bridge(series_id, ctx: PrecisionContext) -> BridgeCoefficients:
    """Coefficients (alpha, beta) and point a* bridging a Ramanujan series
    to the Clausen series and its termwise a-derivative."""
    z, big_a, big_b, _ = _ramanujan_data(series_id, ctx.boosted(10).mp)
    return bridge_from_data(big_a, big_b, z, ctx)
