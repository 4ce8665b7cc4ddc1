import random

import mpmath
import pytest

from multiell import (DomainError, IntegralSpec, SingularityError, agm,
                      ellipk, ellipk_complementary, ellipk_series,
                      generating_integral_closed_form, integrate)
from multiell.elliptic import agm_int, ellipk_mp, ellipk_real_mp
from multiell.quadrature import gap_to


def defining_factory(mp, m):
    """1 / sqrt(1 - m sin^2 t), principal branch.

    For m > 1 the radicand vanishes at t0 = asin(1/sqrt(m)) and is formed as
    m sin(t0 - t) sin(t0 + t), with t0 - t read from the driver's tc when t
    lies next to a panel end at t0, so that no node lands on the zero.
    """
    if m <= 1:
        return lambda t, tc: 1 / mp.sqrt(1 - m * mp.sin(t) ** 2)
    t0 = mp.asin(1 / mp.sqrt(m))

    to_peak = gap_to(mp, t0)

    def f(t, tc):
        return 1 / mp.sqrt(m * mp.sin(mp.make_mpf(to_peak(t, tc))) * mp.sin(t0 + t))
    return f


def defining_integral(m_str, ctx, singular=(), part="real"):
    """Quadrature of the defining integral over (0, pi/2), principal branch.

    Independent oracle for the AGM route (and for the m > 1 continuation,
    where the integrand's square root turns negative past asin(1/sqrt(m)),
    so that the real and imaginary parts, as part names, are two integrals).
    """
    def factory(mp, m):
        f = defining_factory(mp, m)
        return lambda t, tc: getattr(f(t, tc), part)
    spec = IntegralSpec("k_defining", (ctx.mp.mpf(m_str),), (0, lambda mp: mp.pi / 2),
                        factory, singular_points=singular)
    return integrate(spec, ctx)


def test_agm_fixed_point(ctx):
    assert agm(1, 1, ctx) == 1


def test_agm_one_step_invariance(ctx):
    mp = ctx.mp
    a, b = mp.mpf(3), mp.mpf("0.7")
    direct = agm(a, b, ctx)
    stepped = agm((a + b) / 2, mp.sqrt(a * b), ctx)
    assert abs(direct - stepped) <= mp.mpf(10) ** (-ctx.digits + 2) * direct


def test_agm_domain(ctx):
    with pytest.raises(DomainError):
        agm(0, 1, ctx)
    with pytest.raises(DomainError):
        agm(1, -1, ctx)


def _agm_int_pairs(bits):
    """(a, b) pairs with the smaller of them bits bits long, as agm_int's callers
    scale them: b/a from 2^-2000 up to 1 - 2^-bits, and a = b."""
    rng = random.Random(bits)
    small = rng.getrandbits(bits) | 1 << bits - 1
    pairs = [(small << k | rng.getrandbits(k), small) for k in (1, 2, 9, 64, 500, 2000)]
    pairs += [(small + (small >> k), small) for k in (1, 2, 5, 17, bits // 2, bits - 3)]
    return pairs + [(small + 1, small), (small, small)]


SMALL_INT_PAIRS = [(1, 1), (1, 2), (2, 3), (7, 8), (3, 5), (1, 1000), (3, 2 ** 20)]


@pytest.mark.parametrize("order", ["a > b", "a < b"])
@pytest.mark.parametrize("pairs", [*map(_agm_int_pairs, (64, 200, 1016, 3400)), SMALL_INT_PAIRS],
                         ids=["2^64", "2^200", "2^1016", "2^3400", "small ints"])
def test_agm_int_against_mpmath(pairs, order):
    # within 2 units of mpmath's agm M, 40 digits above the larger argument;
    # where b/a is far from 1 a unit is M/sqrt(ab), the geometric means'
    # own resolution.  A stop test sized on a alone stops too early where
    # a << b
    for a, b in pairs:
        if order == "a < b":
            a, b = b, a
        mp = mpmath.mp.clone()
        mp.prec = max(a, b).bit_length() + 133
        exact = mp.agm(a, b)
        unit = max(1, exact / mp.sqrt(a * b))
        assert abs(agm_int(a, b) - exact) <= 2 * unit, (a, b)


def test_agm_sqrt2_matches_quadrature_at_negative_parameter(ctx):
    # pi/(2 agm(1, sqrt 2)) is K at parameter -1; the defining integral
    # (independent route) must agree.
    mp = ctx.mp
    v = agm(1, mp.sqrt(2), ctx)
    quad = defining_integral("-1", ctx)
    assert abs(mp.pi / (2 * v) - quad.value) <= 10 * quad.err_estimate + ctx.pass_tol


def test_ellipk_at_zero(ctx):
    mp = ctx.mp
    assert abs(ellipk(0, ctx) - mp.pi / 2) <= mp.mpf(10) ** (-ctx.digits + 2)


def test_real_route_rejects_super_unit_parameter(ctx):
    # m > 1 has a complex K: its kc = sqrt(1 - m) is not real, so the real
    # route cannot be asked for it; the complex route serves it
    mp = ctx.mp
    assert ellipk_mp(mp, mp.mpf(2)).imag < 0


def test_real_route_rejects_negative_complementary_modulus(ctx):
    mp = ctx.mp
    with pytest.raises(DomainError):
        ellipk_real_mp(mp, -mp.mpf("0.5"))
    with pytest.raises(SingularityError):
        ellipk_real_mp(mp, mp.zero)


def test_ellipk_singularity():
    from multiell import PrecisionContext
    ctx = PrecisionContext(30)
    with pytest.raises(SingularityError):
        ellipk(1, ctx)


def test_imaginary_modulus_transform_at_k06(ctx):
    mp = ctx.mp
    k = mp.mpf("0.6")
    kp = mp.sqrt(1 - k * k)
    lhs = kp * ellipk(k * k, ctx)
    rhs = ellipk(-k * k / (1 - k * k), ctx)
    assert abs(lhs - rhs) <= ctx.pass_tol


def test_super_unit_real_part(ctx):
    mp = ctx.mp
    val = ellipk(4, ctx)
    # real part equals K(1/m)/sqrt(m)
    assert abs(val.real - ellipk(mp.mpf(1) / 4, ctx) / 2) <= ctx.pass_tol
    assert val.imag <= 0


def test_super_unit_regime_against_quadrature(ctx30):
    # Full complex value against the principal-branch defining integral,
    # its real and imaginary parts integrated apart, split where the root
    # changes sign (asin(1/2) = pi/6).  The integrand has an algebraic
    # (inverse square root) singularity there; 30 digits are far beyond
    # what a branch-convention check needs.
    val = ellipk(4, ctx30)
    for part in ("real", "imag"):
        quad = defining_integral("4", ctx30, singular=((lambda mp_: mp_.pi / 6),), part=part)
        assert abs(getattr(val, part) - quad.value) <= 10 * quad.err_estimate + ctx30.pass_tol


def test_series_leading_term(ctx):
    mp = ctx.mp
    for m_str in ("0.9", "-0.4", "0"):
        assert abs(ellipk_series(mp.mpf(m_str), 0, ctx) - mp.pi / 2) \
            <= mp.mpf(10) ** (-ctx.digits + 2)


def test_series_matches_agm_route(ctx):
    mp = ctx.mp
    m = mp.mpf("0.25")
    assert abs(ellipk_series(m, 400, ctx) - ellipk(m, ctx)) <= ctx.pass_tol


def test_series_term_recurrence(ctx):
    mp = ctx.mp
    m = mp.mpf("0.5")
    s10 = ellipk_series(m, 10, ctx)
    s11 = ellipk_series(m, 11, ctx)
    # ((1/2)_11 / (1)_11)^2 m^11 * pi/2
    coeff = mp.one
    for n in range(11):
        r = (2 * n + 1) / mp.mpf(2 * n + 2)
        coeff *= r * r
    expected = mp.pi / 2 * coeff * m ** 11
    assert abs((s11 - s10) - expected) <= mp.mpf(10) ** (-ctx.digits + 5)


def test_series_domain(ctx):
    with pytest.raises(DomainError):
        ellipk_series(1, 10, ctx)
    with pytest.raises(DomainError):
        ellipk_series(-1.5, 10, ctx)


@pytest.mark.parametrize("m_str", ["0.1", "-0.1", "0.5", "-0.5", "0.9"])
def test_series_tail_bound(ctx, m_str):
    # |K - S_N| <= |term_{N+1}| / (1 - |m|): the term ratio is m times a
    # factor below one, so the geometric bound is rigorous.
    mp = ctx.mp
    m = mp.mpf(m_str)
    n_terms = 200
    coeff = mp.one
    for n in range(n_terms + 1):
        r = (2 * n + 1) / mp.mpf(2 * n + 2)
        coeff *= r * r
    term = mp.pi / 2 * coeff * abs(m) ** (n_terms + 1)
    gap = abs(ellipk(m, ctx) - ellipk_series(m, n_terms, ctx))
    assert gap <= term / (1 - abs(m))


def test_complementary_self_dual_point(ctx):
    mp = ctx.mp
    m = mp.mpf("0.5")
    assert ellipk_complementary(m, ctx) == ellipk(m, ctx)


def test_complementary_reflects_parameter(ctx):
    mp = ctx.mp
    assert abs(ellipk_complementary(mp.mpf("0.75"), ctx) - ellipk(mp.mpf("0.25"), ctx)) \
        <= mp.mpf(10) ** (-ctx.digits + 2)


def test_complementary_singular_at_zero(ctx):
    with pytest.raises(SingularityError):
        ellipk_complementary(0, ctx)


def test_logarithmic_blowup_is_compensated(ctx):
    # K(m) + (1/2) log(1-m) approaches 2 log 2 as m -> 1
    mp = ctx.mp
    for j in range(1, 11):
        m = 1 - mp.mpf(10) ** (-j)
        value = ellipk(m, ctx) + mp.log(1 - m) / 2
        assert abs(value) < 2


def test_closed_form_at_zero(ctx):
    mp = ctx.mp
    assert abs(generating_integral_closed_form(0, ctx) - mp.pi ** 2 / 4) \
        <= mp.mpf(10) ** (-ctx.digits + 2)


def test_closed_form_small_a_quadratic(ctx):
    # fit |f(a) - pi^2/4| = C a^2 at a = 1e-3, validate at a = 1e-4
    mp = ctx.mp
    base = mp.pi ** 2 / 4
    a1 = mp.mpf(10) ** -3
    c_fit = abs(generating_integral_closed_form(a1, ctx) - base) / a1 ** 2
    a2 = mp.mpf(10) ** -4
    gap = abs(generating_integral_closed_form(a2, ctx) - base)
    assert gap <= c_fit * a2 ** 2 * mp.mpf("1.001")


def test_closed_form_large_a_decay(ctx):
    mp = ctx.mp
    a = mp.mpf(10) ** 6
    assert abs(a * generating_integral_closed_form(a, ctx) - mp.pi ** 2 / 4) <= mp.mpf(10) ** -10


def test_closed_form_continuous_at_one(ctx):
    mp = ctx.mp
    v = generating_integral_closed_form(1, ctx)
    m = (1 - mp.sqrt(2)) / 2
    assert abs(v - ellipk(m, ctx) ** 2) <= mp.mpf(10) ** (-ctx.digits + 3)


def test_closed_form_domain(ctx):
    with pytest.raises(DomainError):
        generating_integral_closed_form(-0.5, ctx)
