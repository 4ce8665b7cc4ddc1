"""Legendre polynomials: recurrence evaluation, generating function,
orthogonality on (0, 1) after x -> 2x-1, and the even-index expansion of
the elliptic kernel K(2 sqrt(x(1-x))).

The three-term recurrence has two forms.  ``_legendre_values`` runs it in
mpf for legendre_p, the generating-function check and the kernel
expansion.  The Gram integrand runs it on ints scaled by 2^wp, wp =
quadrature.fraction_bits, and returns every product P_n P_m as a
quadrature.Fixed, so the orthogonality integral makes no mpf operation
per node.
"""

from __future__ import annotations

from itertools import count, islice

from .errors import DomainError
from .precision import PrecisionContext, _count, _finite
from .quadrature import Fixed, IntegralSpec, fraction_bits, integrate

GRAM_MAX_ORDER = 20  # cost guard


def _legendre_values(mp, x):
    """P_0(x), P_1(x), ... by the three-term recurrence, without end."""
    p_prev, p_cur = mp.one, x
    yield p_prev
    for k in count(1):
        yield p_cur
        p_prev, p_cur = p_cur, ((2 * k + 1) * x * p_cur - k * p_prev) / (k + 1)


def legendre_p_mp(mp, n: int, x):
    """P_n(x) by the three-term recurrence inside context mp."""
    return next(islice(_legendre_values(mp, x), n, None))


def legendre_p(n: int, x, ctx: PrecisionContext):
    """P_n(x) for n >= 0."""
    n, hi = _count(n, "legendre_p"), ctx.boosted(10)
    return ctx.reduce(legendre_p_mp(hi.mp, n, _finite(hi.mp, x, "legendre_p")))


def generating_function_check(a, x, n_terms: int, ctx: PrecisionContext):
    """|closed form - partial sum| for the Legendre generating function.

    Closed form 1/sqrt(1 - 2(2x-1)a + a^2) against sum_{n<=N} P_n(2x-1) a^n;
    the gap must decay geometrically in N since |P_n| <= 1 on [-1, 1].
    """
    hi = ctx.boosted(10)
    mp = hi.mp
    a, x = (_finite(mp, v, "generating_function_check") for v in (a, x))
    if not abs(a) < 1:
        raise DomainError(f"generating function requires |a| < 1, got {a}")
    y = 2 * x - 1
    closed = 1 / mp.sqrt(1 - 2 * y * a + a * a)
    acc = mp.zero
    apow = mp.one
    for p in islice(_legendre_values(mp, y), _count(n_terms, "generating_function_check") + 1):
        acc += p * apow
        apow *= a
    return ctx.reduce(abs(closed - acc))


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
    exact values are delta_nm / (2n+1).
    """
    if _count(order, "orthogonality_gram") > GRAM_MAX_ORDER:
        raise DomainError(f"order must be an integer in [0, {GRAM_MAX_ORDER}], got {order!r}")
    spec = IntegralSpec(f"legendre_gram_{order}", (order,), (0, 1), _gram_factory)
    values = iter(integrate(spec, ctx).value)
    gram = [[None] * (order + 1) for _ in range(order + 1)]
    for n in range(order + 1):
        for m in range(n + 1):
            gram[n][m] = gram[m][n] = next(values)
    return gram


def kernel_expansion_partial_sum(x, n_terms: int, ctx: PrecisionContext):
    """Partial sum of the even-index Legendre expansion of the K kernel.

    sum_{n<=N} (-1)^n ((1/2)_n / (1)_n)^3 (4n+1) P_{2n}(2x-1), which
    converges (slowly, pointwise, away from x = 1/2) to
    4 K(2 sqrt(x(1-x))) / pi^2.
    """
    hi = ctx.boosted(10)
    mp = hi.mp
    y = 2 * _finite(mp, x, "kernel_expansion_partial_sum") - 1
    acc = mp.zero
    q = mp.one  # (-1)^n ((1/2)_n/(1)_n)^3
    n_terms = _count(n_terms, "kernel_expansion_partial_sum")
    for n, p in zip(range(n_terms + 1), islice(_legendre_values(mp, y), 0, None, 2)):
        acc += q * (4 * n + 1) * p
        r = (2 * n + 1) / mp.mpf(2 * n + 2)
        q *= -(r * r * r)
    return ctx.reduce(acc)
