"""The level-4 singular values: one table, keyed by r, of every closed form
that holds at the singular modulus lambda*(r).

lambda*(r) is the modulus k with K(k')/K(k) = sqrt(r) (Borwein & Borwein,
*Pi and the AGM*, 1987, ch. 9).  Each entry of SINGULAR_VALUES holds
functions of an mpmath context mp, with lambda = lambda*(r):

  lam     lambda*(r);
  series  (z, A, B, T) with sum_n ((1/2)_n/n!)^3 (A n + B) z^n = T/pi and
          z = -4 lambda^2/(1 - lambda^2)^2: the level-4 Ramanujan-type
          series at r = 4 and 12, which series.SERIES_R names;
  beta    beta with beta^2 = 1 - (1 - 2 lambda^2)^2, so that the generating
          integral I1(i beta) = K(lambda^2)^2 (r = 3 and 7);
  row     the catalog row whose value gamma(mp, g) gives in Gamma values,
          g being gamma at the caller's precision: I3 = I1(sqrt(-z)) =
          (1 - lambda^2) K(lambda^2)^2 at r = 4, and I4, I5 = beta I1(i beta)
          at r = 3 and 7.

The series module and the catalog rows I2-I5, I10 and I12 read their
points and constants here and keep no copy.  An r is admitted when the
entry-rule tests in tests/test_singular.py hold on it at 300 digits: lam
against the theta quotient theta_2^2/theta_3^2 at q = exp(-pi sqrt r), z
from lam, the series against mpmath's hyp3f2, beta from lam, and the
Gamma form against K(lambda^2)^2.
"""

from __future__ import annotations

from collections import namedtuple

from .elliptic import ellipk_real_mp
from .gammafn import gamma
from .precision import PrecisionContext, _choice

SingularValue = namedtuple("SingularValue", "lam series beta row gamma", defaults=(None,) * 4)
SINGULAR_VALUES = {
    3: SingularValue(
        lambda mp: mp.sqrt(2) * (mp.sqrt(3) - 1) / 4, beta=lambda mp: mp.one / 2, row="I4",
        gamma=lambda mp, g: mp.sqrt(3) * g(mp.one / 3) ** 6
        / (2 ** (mp.mpf(17) / 3) * mp.pi ** 2)),
    4: SingularValue(
        lambda mp: 3 - 2 * mp.sqrt(2),
        series=lambda mp: (-mp.one / 8, mp.mpf(6), mp.one, 2 * mp.sqrt(2)),
        row="I3", gamma=lambda mp, g: g(mp.one / 4) ** 4 / (16 * mp.sqrt(2) * mp.pi)),
    7: SingularValue(
        lambda mp: mp.sqrt(2) * (3 - mp.sqrt(7)) / 8, beta=lambda mp: mp.one / 8, row="I5",
        gamma=lambda mp, g: (g(mp.one / 7) * g(2 * mp.one / 7) * g(4 * mp.one / 7)) ** 2
        / (128 * mp.sqrt(7) * mp.pi ** 2)),
    12: SingularValue(
        lambda mp: ((mp.sqrt(3) - mp.sqrt(2)) * (mp.sqrt(2) - 1)) ** 2,
        series=lambda mp: (-(26 - 15 * mp.sqrt(3)) / 16, 30 - 6 * mp.sqrt(3),
                           7 - 3 * mp.sqrt(3), 4 * mp.sqrt(2))),
}
SUPPORTED_R = tuple(SINGULAR_VALUES)
_BY_ROW = {entry.row: entry for entry in SINGULAR_VALUES.values() if entry.row}


def lambda_star(r: int, ctx: PrecisionContext):
    """Closed-form singular modulus lambda*(r) for r in SUPPORTED_R."""
    return +_choice(SINGULAR_VALUES, r, "lambda_star").lam(ctx.mp)


def singular_value_residual(r: int, ctx: PrecisionContext):
    """|K'(lambda*(r)) / K(lambda*(r)) - sqrt(r)|, which must sit below pass_tol."""
    mp = ctx.boosted(10).mp
    lam = lambda_star(r, ctx.boosted(10))
    # K' at modulus lambda has complementary modulus lambda, K the exact
    # sqrt((1 - lambda)(1 + lambda))
    ratio = ellipk_real_mp(mp, lam) / ellipk_real_mp(mp, mp.sqrt((1 - lam) * (1 + lam)))
    return ctx.reduce(abs(ratio - mp.sqrt(r)))


def rhs_constant(identity_id: str, ctx: PrecisionContext):
    """Gamma closed form of the singular-value rows I3, I4 and I5."""
    entry, hi = _choice(_BY_ROW, identity_id, "rhs_constant"), ctx.boosted(10)
    return ctx.reduce(entry.gamma(hi.mp, lambda x: gamma(x, hi)))
