import math

import pytest
from mpmath.ctx_mp import MPContext

from multiell import (DomainError, PrecisionContext, SeriesId,
                      clausen_sum, clausen_sum_da, ellipk, ellipk_series,
                      generating_integral_closed_form, integrate,
                      legendre_sum, linear_bridge, ramanujan_sum,
                      ramanujan_target)
from multiell.kernels import weighted_kernel_spec
from multiell.series import bridge_from_data


def test_clausen_empty(ctx):
    assert clausen_sum(0, 10, ctx) == 1


def test_clausen_matches_squared_k_closed_form(ctx):
    # at a = 1/sqrt(8) the sum equals (4/pi^2) [K(m)]^2 with m = (1-sqrt(9/8))/2
    mp = ctx.mp
    a = 1 / mp.sqrt(8)
    lhs = clausen_sum(a, 300, ctx)
    rhs = 4 / mp.pi ** 2 * generating_integral_closed_form(a, ctx)
    m = (1 - mp.sqrt(mp.mpf(9) / 8)) / 2
    direct = 4 / mp.pi ** 2 * ellipk(m, ctx) ** 2
    assert abs(lhs - rhs) <= ctx.pass_tol
    assert abs(lhs - direct) <= ctx.pass_tol


def test_clausen_matches_quadrature(ctx):
    mp = ctx.mp
    a = mp.mpf("0.5")
    (value,) = integrate(weighted_kernel_spec((a,)), ctx).value
    assert abs(clausen_sum(a, 300, ctx) - 4 / mp.pi ** 2 * value) <= ctx.pass_tol


def test_clausen_domain(ctx):
    with pytest.raises(DomainError):
        clausen_sum(1, 10, ctx)


@pytest.mark.parametrize("a_str,n_terms", [("0.3", 20), ("0.5", 20),
                                           ("0.9", 20), ("0.5", 40)])
def test_clausen_geometric_tail(ctx, a_str, n_terms):
    mp = ctx.mp
    a = mp.mpf(a_str)
    gap = abs(clausen_sum(a, n_terms, ctx) - clausen_sum(a, 2 * n_terms, ctx))
    assert gap <= abs(a) ** (2 * n_terms)


def test_derivative_series_vanishes_at_origin(ctx):
    assert clausen_sum_da(0, 50, ctx) == 0


def test_derivative_series_against_central_difference(ctx):
    mp = ctx.mp
    a = mp.mpf("0.3")
    h = mp.mpf(10) ** -10
    fd = (clausen_sum(a + h, 300, ctx) - clausen_sum(a - h, 300, ctx)) / (2 * h)
    assert abs(clausen_sum_da(a, 300, ctx) - fd) <= mp.mpf(10) ** -18


@pytest.mark.parametrize("a_str", ["0.1", "0.3", "0.35"])
def test_derivative_consistency_at_spec_step(ctx, a_str):
    mp = ctx.mp
    a = mp.mpf(a_str)
    h = mp.mpf(10) ** (-(ctx.digits // 3))
    fd = (clausen_sum(a + h, 400, ctx) - clausen_sum(a - h, 400, ctx)) / (2 * h)
    assert abs(clausen_sum_da(a, 400, ctx) - fd) <= mp.mpf(10) ** (-(ctx.digits // 2))


def test_ramanujan_leading_terms(ctx):
    mp = ctx.mp
    assert ramanujan_sum(SeriesId.RAMANUJAN_2SQRT2, 0, ctx) == 1
    expected = 7 - 3 * mp.sqrt(3)
    assert abs(ramanujan_sum(SeriesId.RAMANUJAN_4SQRT2, 0, ctx) - expected) \
        <= mp.mpf(10) ** (-ctx.digits + 2)


def test_ramanujan_2sqrt2_value(ctx):
    mp = ctx.mp
    target = 2 * mp.sqrt(2) / mp.pi
    assert abs(ramanujan_sum(SeriesId.RAMANUJAN_2SQRT2, 200, ctx) - target) \
        <= mp.mpf(10) ** (-ctx.digits + 10)
    assert abs(ramanujan_target(SeriesId.RAMANUJAN_2SQRT2, ctx) - target) \
        <= mp.mpf(10) ** (-ctx.digits + 2)


def test_ramanujan_4sqrt2_value(ctx):
    mp = ctx.mp
    target = 4 * mp.sqrt(2) / mp.pi
    assert abs(ramanujan_sum(SeriesId.RAMANUJAN_4SQRT2, 400, ctx) - target) <= ctx.pass_tol


def test_ramanujan_rejects_other_ids(ctx):
    with pytest.raises(DomainError):
        ramanujan_sum("clausen", 100, ctx)


def test_bridge_coefficients_2sqrt2(ctx):
    mp = ctx.mp
    bridge = linear_bridge(SeriesId.RAMANUJAN_2SQRT2, ctx)
    tol = mp.mpf(10) ** (-ctx.digits + 2)
    assert abs(bridge.a_star - 1 / mp.sqrt(8)) <= tol
    assert abs(bridge.alpha - 1) <= tol
    assert abs(bridge.beta - 3 / (2 * mp.sqrt(2))) <= tol


def test_bridge_coefficients_4sqrt2(ctx):
    mp = ctx.mp
    bridge = linear_bridge(SeriesId.RAMANUJAN_4SQRT2, ctx)
    tol = mp.mpf(10) ** (-ctx.digits + 2)
    assert abs(bridge.a_star - mp.sqrt(26 - 15 * mp.sqrt(3)) / 4) <= tol
    assert abs(bridge.alpha - (7 - 3 * mp.sqrt(3))) <= tol
    assert abs(bridge.beta - (30 - 6 * mp.sqrt(3)) * bridge.a_star / 2) <= tol


@pytest.mark.parametrize("series_id", [SeriesId.RAMANUJAN_2SQRT2,
                                       SeriesId.RAMANUJAN_4SQRT2])
def test_bridged_series_reproduces_ramanujan_sum(ctx, series_id):
    bridge = linear_bridge(series_id, ctx)
    bridged = (bridge.alpha * clausen_sum(bridge.a_star, 400, ctx)
               + bridge.beta * clausen_sum_da(bridge.a_star, 400, ctx))
    assert abs(bridged - ramanujan_sum(series_id, 400, ctx)) <= ctx.pass_tol


def test_degenerate_bridge_is_pure_clausen(ctx):
    mp = ctx.mp
    bridge = bridge_from_data(0, 1, -mp.mpf("0.09"), ctx)
    assert bridge.alpha == 1
    assert bridge.beta == 0
    assert abs(bridge.a_star - mp.mpf("0.3")) <= mp.mpf(10) ** (-ctx.digits + 2)


@pytest.mark.parametrize("big_b,z", [("1e20", "-0.7"), ("1e5", "-1e5")])
def test_bridge_where_a_n_plus_b_cancels(ctx30, big_b, z):
    # A = -B/3 makes A n + B vanish at n = 3: the coefficient match is an
    # identity, so no cancellation in it may raise
    mp = ctx30.mp
    big_b, z = mp.mpf(big_b), mp.mpf(z)
    big_a = -big_b / 3
    bridge = bridge_from_data(big_a, big_b, z, ctx30)
    tol = mp.mpf(10) ** (-ctx30.digits + 2)
    assert bridge.alpha == big_b
    assert abs(bridge.a_star - mp.sqrt(-z)) <= tol * bridge.a_star
    assert abs(bridge.beta - big_a * mp.sqrt(-z) / 2) <= tol * abs(bridge.beta)


def test_bridge_requires_negative_base(ctx):
    with pytest.raises(DomainError):
        bridge_from_data(6, 1, ctx.mp.mpf("0.125"), ctx)


def test_legendre_sum_reduces_to_plain_value_at_zero(ctx):
    mp = ctx.mp
    assert abs(legendre_sum(0, 5, ctx) - mp.pi ** 2 / 4) <= mp.mpf(10) ** (-ctx.digits + 2)


# The fixed-point loop at 300 digits against mpmath 20 digits higher.  The
# partial sums take enough terms that their tail is below 10^-305.
CTX300 = PrecisionContext(300)
REF320 = MPContext()
REF320.dps = 320
TOL300 = REF320.mpf(10) ** -298


def _terms_300(ratio):
    return int(305 * math.log(10) / -REF320.log(abs(REF320.mpf(ratio)))) + 10


def _rel_close(value, ref):
    return abs(REF320.convert(value) - ref) <= TOL300 * abs(ref)


def _hyp3f2(a):
    return REF320.hyp3f2(0.5, 0.5, 0.5, 1, 1, -REF320.mpf(a) ** 2)


@pytest.mark.parametrize("a", ["0.5", "0.95"])
def test_clausen_sum_at_300_digits(a):
    assert _rel_close(clausen_sum(a, _terms_300(REF320.mpf(a) ** 2), CTX300), _hyp3f2(a))


@pytest.mark.parametrize("a", ["1e-237", "-0.5", "0.95"])
def test_clausen_sum_da_at_300_digits(a):
    # d/da 3F2(1/2,1/2,1/2; 1,1; -a^2) = -(a/4) 3F2(3/2,3/2,3/2; 2,2; -a^2),
    # checked relative to its size: at a = 1e-237 the value is about -a/4
    x = REF320.mpf(a)
    ref = -x / 4 * REF320.hyp3f2(1.5, 1.5, 1.5, 2, 2, -x * x)
    assert _rel_close(clausen_sum_da(a, _terms_300(REF320.mpf(a) ** 2), CTX300), ref)


@pytest.mark.parametrize("series_id,ratio,target", [
    (SeriesId.RAMANUJAN_2SQRT2, 1 / 8, lambda mp: 2 * mp.sqrt(2) / mp.pi),
    (SeriesId.RAMANUJAN_4SQRT2, (26 - 15 * math.sqrt(3)) / 16, lambda mp: 4 * mp.sqrt(2) / mp.pi)])
def test_ramanujan_sum_at_300_digits(series_id, ratio, target):
    assert _rel_close(ramanujan_sum(series_id, _terms_300(ratio), CTX300), target(REF320))


@pytest.mark.parametrize("m", ["-0.9", "0.5"])
def test_ellipk_series_at_300_digits(m):
    assert _rel_close(ellipk_series(m, _terms_300(m), CTX300), REF320.ellipk(REF320.mpf(m)))


def test_no_terms_leave_the_leading_term(ctx):
    mp = ctx.mp
    a = mp.mpf("0.7")
    assert clausen_sum(a, 0, ctx) == 1
    assert clausen_sum_da(a, 0, ctx) == 0
    assert legendre_sum(a, 0, ctx) == +(mp.pi ** 2 / 4)
    assert ellipk_series(a, 0, ctx) == +(mp.pi / 2)
    assert ramanujan_sum(SeriesId.RAMANUJAN_2SQRT2, 0, ctx) == 1


def test_zero_argument_leaves_the_leading_term(ctx):
    mp = ctx.mp
    assert clausen_sum(0, 400, ctx) == 1
    assert clausen_sum_da(0, 400, ctx) == 0
    assert legendre_sum(0, 400, ctx) == +(mp.pi ** 2 / 4)
    assert ellipk_series(0, 400, ctx) == +(mp.pi / 2)


@pytest.mark.parametrize("series", [clausen_sum, clausen_sum_da, legendre_sum, ellipk_series])
@pytest.mark.parametrize("arg", [lambda mp: 0.3 + 0.2j, lambda mp: 0.3 + 0j,
                                 lambda mp: mp.mpc("0.3", "-0.1")], ids=["complex", "complex_real", "mpc"])
def test_series_refuse_complex_arguments(ctx, series, arg):
    with pytest.raises(DomainError, match="real"):
        series(arg(ctx.mp), 50, ctx)
