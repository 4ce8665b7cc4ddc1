"""Orthogonality of the Legendre polynomials on (0, 1) after x -> 2x-1.

The Gram integrand runs the three-term recurrence on ints and returns
every product P_n P_m as one quadrature.Fixed, so the orthogonality
integral makes no mpf operation per node.  P_n at a single point is
mpmath's ``legendre``.
"""

from __future__ import annotations

from .errors import DomainError
from .precision import PrecisionContext, _count
from .quadrature import Fixed, IntegralSpec, fraction_bits, integrate

GRAM_MAX_ORDER = 20  # cost guard


def _gram_factory(mp, order: int):
    """P_n(2x-1) P_m(2x-1) for order >= n >= m >= 0, row by row, as one Fixed.

    The three-term recurrence runs on ints scaled by 2^wp, wp =
    fraction_bits(mp): |P_n| <= 1 on [-1, 1], so one absolute scale keeps
    P_n within about n(n+1) units of 2^-wp, and the products are returned
    unshifted, at 2^-2wp.
    """
    pairs = [(n, m) for n in range(order + 1) for m in range(n + 1)]
    wp = fraction_bits(mp)
    one = 1 << wp

    def f(x, _):
        y = (x.to_fixed(wp) << 1) - one  # (2x - 1) 2^wp
        p = [one, y]
        for k in range(1, order):
            p.append((((2 * k + 1) * y * p[k] >> wp) - k * p[k - 1]) // (k + 1))
        return Fixed(tuple(p[n] * p[m] for n, m in pairs), -2 * wp)
    return f


def orthogonality_gram(order: int, ctx: PrecisionContext):
    """(order+1) x (order+1) matrix of integrals of P_n(2x-1) P_m(2x-1) on (0,1).

    Computed with the same double-exponential engine as every other
    integral in the package, as one vector integral whose components are
    the n >= m products, so that P_0..P_order are evaluated once per node;
    exact values are delta_nm / (2n+1).  Entries are rounded to ctx.digits.
    """
    if _count(order, "orthogonality_gram") > GRAM_MAX_ORDER:
        raise DomainError(f"order must be an integer in [0, {GRAM_MAX_ORDER}], got {order!r}")
    spec = IntegralSpec(f"legendre_gram_{order}", (order,), (0, 1), _gram_factory)
    values = iter(integrate(spec, ctx).value)
    gram = [[None] * (order + 1) for _ in range(order + 1)]
    for n in range(order + 1):
        for m in range(n + 1):
            gram[n][m] = gram[m][n] = ctx.reduce(next(values))
    return gram
