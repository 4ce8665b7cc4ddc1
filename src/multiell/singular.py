"""Tabulated elliptic lambda values and the gamma closed-form constants.

lambda*(r) is the modulus k with K(k')/K(k) = sqrt(r); the three tabulated
values feed the catalog's singular-value identities, whose right-hand
sides are algebraic multiples of gamma-function products.
"""

from __future__ import annotations

from .elliptic import ellipk_real_mp
from .errors import DomainError
from .gammafn import gamma
from .precision import PrecisionContext

SUPPORTED_R = (3, 4, 7)


def lambda_star(r: int, ctx: PrecisionContext):
    """Closed-form singular modulus for r in {3, 4, 7}."""
    mp = ctx.mp
    if r == 3:
        return +(mp.sqrt(2) * (mp.sqrt(3) - 1) / 4)
    if r == 4:
        return +(3 - 2 * mp.sqrt(2))
    if r == 7:
        return +(mp.sqrt(2) * (3 - mp.sqrt(7)) / 8)
    raise DomainError(f"unsupported r = {r!r}; tabulated values exist for {SUPPORTED_R}")


def singular_value_residual(r: int, ctx: PrecisionContext):
    """|K'(lambda*(r)) / K(lambda*(r)) - sqrt(r)|, which must sit below pass_tol."""
    hi = ctx.boosted(10)
    mp = hi.mp
    lam = mp.convert(lambda_star(r, ctx.boosted(10)))
    # K' at modulus lambda has complementary modulus lambda, K the exact
    # sqrt((1 - lambda)(1 + lambda))
    ratio = ellipk_real_mp(mp, lam) / ellipk_real_mp(mp, mp.sqrt((1 - lam) * (1 + lam)))
    return ctx.reduce(abs(ratio - mp.sqrt(r)))


def rhs_constant(identity_id: str, ctx: PrecisionContext):
    """Gamma closed form on the right side of the singular-value identities."""
    hi = ctx.boosted(10)
    mp = hi.mp
    third = mp.one / 3
    seventh = mp.one / 7
    if identity_id == "I3":
        value = gamma(mp.one / 4, hi) ** 4 / (16 * mp.sqrt(2) * mp.pi)
    elif identity_id == "I4":
        value = mp.sqrt(3) * gamma(third, hi) ** 6 / (2 ** (mp.mpf(17) / 3) * mp.pi ** 2)
    elif identity_id == "I5":
        prod = gamma(seventh, hi) * gamma(2 * seventh, hi) * gamma(4 * seventh, hi)
        value = prod ** 2 / (128 * mp.sqrt(7) * mp.pi ** 2)
    else:
        raise DomainError(f"no tabulated constant for identity {identity_id!r}")
    return ctx.reduce(value)
