"""Gamma function for positive real arguments.

Gamma is evaluated with a Spouge-class convergent series whose order is
chosen from the context's precision; coefficients are cached per order.
Its alternating sum cancels about 0.13 digits per unit of order: the guard
digits grow with the order.  For 2 <= x <= SHIFT_MAX, x is first shifted
into [1, 2) by Gamma(x) = (x-1) Gamma(x-1): ``_rising_mp`` takes the shift
as one integer product of exact factors, one per unit of x, rounded once.
Above SHIFT_MAX the series is applied at x itself, its error bound holding
for every z >= 0, so the cost no longer grows with x.  There its sum
cancels from its largest coefficient down to about sqrt(2 pi), and its
factor za^(z+1/2) e^(-za) is the exponential of an argument near x ln x,
whose rounding error becomes the factor's relative error; each is formed
with one more guard digit per decimal digit it loses.  Gamma supports only
positive real arguments (every closed-form constant in the identity
catalog needs rational positive arguments only).
"""

from __future__ import annotations

import threading

from .errors import DomainError
from .precision import PrecisionContext, _real

SHIFT_MAX = 100  # above this x, Spouge's series runs at x itself, unshifted

_coeff_cache: dict = {}
_cache_lock = threading.Lock()


def _spouge_coefficients(mp, order: int):
    """c_0 .. c_{order-1} for the Spouge series at the given order."""
    key = (order, mp.dps)
    with _cache_lock:
        coeffs = _coeff_cache.get(key)
    if coeffs is not None:
        return coeffs
    coeffs = [mp.sqrt(2 * mp.pi)]
    fact = mp.one
    for k in range(1, order):
        ak = mp.mpf(order - k)
        c = ak ** (k - mp.mpf("0.5")) * mp.exp(ak) / fact
        coeffs.append(c if k % 2 else -c)
        fact *= k
    with _cache_lock:
        _coeff_cache[key] = coeffs
    return coeffs


def _spouge_sum(mp, z, order: int):
    """Spouge's sum c_0 + c_1/(z+1) + ... + c_{order-1}/(z+order-1)."""
    coeffs = _spouge_coefficients(mp, order)
    s = coeffs[0]
    for k in range(1, order):
        s += coeffs[k] / (z + k)
    return s


def _spouge_factor(mp, z, order: int):
    """za^(z+1/2) e^(-za), za = z + order: Gamma(z+1) is this times the sum."""
    za = z + order
    return za ** (z + mp.mpf("0.5")) * mp.exp(-za)


def _gamma_zp1(mp, z, order: int):
    """Gamma(z+1) via the Spouge series; valid for z >= 0."""
    return _spouge_factor(mp, z, order) * _spouge_sum(mp, z, order)


def gamma(x, ctx: PrecisionContext):
    """Gamma(x) for x > 0, to ctx.digits relative accuracy.

    The shift into [1, 2) costs one multiplication per unit of x up to
    SHIFT_MAX; above it the cost grows only with the digits of x ln x.
    """
    # relative truncation ~ (2*pi)^-(order+1/2); 1.26 ~ ln(10)/ln(2*pi)
    order = int(1.26 * (ctx.digits + 8)) + 2
    guard = order * 13 // 100 + 10
    hi = ctx.boosted(guard)
    mp = hi.mp
    x = _real(mp, x, "gamma")
    if not x > 0:
        raise DomainError(f"gamma requires x > 0, got {x}")
    if x < 1:
        return ctx.reduce(_gamma_zp1(mp, x, order) / x)
    if x > SHIFT_MAX:
        # at large z the sum cancels from its largest coefficient down to
        # about sqrt(2 pi), and the factor is the exponential of an argument
        # near x ln x: each gets one guard digit per digit it loses
        largest = max(abs(c) for c in _spouge_coefficients(mp, order))
        summed = ctx.boosted(guard + int(mp.log10(largest)) + 1).mp
        spread = ctx.boosted(guard + int(mp.log10(x * mp.log(x))) + 1).mp
        return ctx.reduce(_spouge_factor(spread, spread.convert(x) - 1, order)
                          * _spouge_sum(summed, summed.convert(x) - 1, order))
    # Gamma(x) = (z+1)(z+2)...(z+n) Gamma(z+1) with z = x-1-n in [0, 1)
    n = int(x) - 1
    z = x - 1 - n  # exact: z keeps x's last bit's place, and so does z + 1
    return ctx.reduce(_rising_mp(mp, z + 1, n) * _gamma_zp1(mp, z, order))


def _rising_mp(mp, x, n: int):
    """x (x+1) ... (x+n-1) for an mpf x in [1, 2), rounded once into context mp.

    Every factor is an exact integer over x's binary point, and the product
    is an int cut back to wp = prec + 10 + n.bit_length() bits after each
    factor: n cuts of relative size below 2^(1-wp) each, which costs less
    than the subtraction and product of an mpf step.
    """
    wp = mp.prec + 10 + n.bit_length()
    _, xm, exp, _ = x._mpf_  # x in [1, 2): sign 0, exp <= 0
    acc, acc_exp = 1, exp * n  # each factor is (xm + k 2^-exp) 2^exp
    for k in range(n):
        acc *= xm + (k << -exp)
        drop = acc.bit_length() - wp
        if drop > 0:
            acc >>= drop
            acc_exp += drop
    return mp.mpf((acc, acc_exp))
