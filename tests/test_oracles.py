"""The series, recurrence and K routines against mpmath's own implementations.

Each series or recurrence value at 30 digits is compared with an
independent mpmath function evaluated 10 digits higher.  Partial sums take
enough terms that their truncated tail sits below the tolerance.  K near
its logarithmic singularity is evaluated at the quadrature engine's
precision for 50 working digits and compared with mpmath's ellipk at 200
digits.  The integer AGM core behind K and the public agm is compared
with mpmath's ellipk and agm over many decades of kc, a and b, at working
precisions from 30 to 320 digits, and the complementary K at parameters
down to 1e-300 with mpmath's ellipk at the digits that 1 - m needs.
"""

import math

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from mpmath.ctx_mp import MPContext

import multiell.kernels as kernels
from multiell import (DomainError, IntegralSpec, PrecisionContext, agm,
                      clausen_sum, clausen_sum_da, ellipk_complementary,
                      ellipk_series, integrate, legendre_p, legendre_sum)
from multiell.elliptic import ellipk_real_mp, re_k_modulus_mp
from multiell.kernels import k_of_x
from multiell.quadrature import GUARD, offset

CTX = PrecisionContext(30)
REF = CTX.boosted(10).mp
TOL = REF.mpf(10) ** (-(CTX.digits - 5))

oracle_settings = settings(max_examples=20, deadline=None, derandomize=True, database=None)
inside = st.floats(min_value=-0.9, max_value=0.9)
outside = st.floats(min_value=1, max_value=10).flatmap(lambda v: st.sampled_from((v, -v)))


def terms_for(ratio):
    """Terms after which ratio^n has dropped below 10^-(digits+5)."""
    if ratio == 0:
        return 1
    return int((CTX.digits + 5) * math.log(10) / -math.log(abs(ratio))) + 10


def hyp3f2(a):
    return REF.hyp3f2(0.5, 0.5, 0.5, 1, 1, -REF.mpf(a) ** 2)


def close(value, ref):
    return abs(REF.convert(value) - ref) <= TOL * max(1, abs(ref))


@oracle_settings
@given(inside)
def test_clausen_sum_against_hyp3f2(a):
    assert close(clausen_sum(a, terms_for(a * a), CTX), hyp3f2(a))


@oracle_settings
@given(inside)
def test_legendre_sum_against_hyp3f2(a):
    assert close(legendre_sum(a, terms_for(a * a), CTX), REF.pi ** 2 / 4 * hyp3f2(a))


@oracle_settings
@given(inside)
def test_clausen_sum_da_against_derivative_of_hyp3f2(a):
    assert close(clausen_sum_da(a, terms_for(a * a), CTX), REF.diff(hyp3f2, a))


@oracle_settings
@given(inside)
def test_ellipk_series_against_ellipk(m):
    assert close(ellipk_series(m, terms_for(m), CTX), REF.ellipk(m))


@oracle_settings
@given(st.integers(min_value=0, max_value=40), st.floats(min_value=-1, max_value=1))
def test_legendre_p_against_legendre(n, x):
    assert close(legendre_p(n, x, CTX), REF.legendre(n, x))


@oracle_settings
@given(outside)
@pytest.mark.parametrize("series", [clausen_sum_da, legendre_sum])
def test_a_dependent_series_reject_unit_and_beyond(series, a):
    with pytest.raises(DomainError):
        series(a, 10, CTX)


# K from its complementary modulus: 50 working digits, so the engine
# carries 50 + GUARD and every value must hold 10^-(50 + 10) relative.
WORKING = 50
ENGINE = PrecisionContext(WORKING).boosted(GUARD).mp
EXACT = PrecisionContext(200).mp
K_TOL = EXACT.mpf(10) ** (-(WORKING + 10))
sign = st.sampled_from((-1, 1))
near_singular = st.integers(min_value=1, max_value=60)


def k_close(value, ref):
    return abs(EXACT.convert(value) - ref) <= K_TOL * abs(ref)


@oracle_settings
@given(st.floats(min_value=0, max_value=70))
def test_ellipk_from_complementary_modulus(e):
    kc = ENGINE.mpf(10) ** -ENGINE.mpf(e)
    ref = EXACT.ellipk(1 - EXACT.convert(kc) ** 2)
    assert k_close(ellipk_real_mp(ENGINE, kc), ref)


@oracle_settings
@given(near_singular, sign)
def test_k_of_x_next_to_its_singular_abscissa(k, s):
    # a quadrature node at distance d from the panel end 1/2: x is rounded,
    # the driver's xc = 1/2 - x = d is exact
    d = s * ENGINE.mpf(10) ** -k
    x = ENGINE.mpf(0.5) - d
    ref = EXACT.ellipk(1 - 4 * EXACT.convert(d) ** 2)
    assert k_close(k_of_x(ENGINE)(x, d), ref)


@oracle_settings
@given(near_singular, sign)
def test_re_k_modulus_next_to_modulus_one(k, s):
    x = 1 + s * ENGINE.mpf(10) ** -k
    xe = EXACT.convert(x)
    ref = EXACT.ellipk(xe * xe) if x < 1 else EXACT.ellipk(1 / (xe * xe)) / xe
    assert k_close(re_k_modulus_mp(ENGINE, x, 1 - x), ref)  # 1 - x is exact here


# t near c: the gap c - t is s 10^-k, down to 1e-30 from the log singularity at b = 0
t_near_c = st.tuples(st.integers(min_value=1, max_value=30), sign)
t_anywhere = st.floats(min_value=0, max_value=50, exclude_min=True)


@oracle_settings
@given(st.floats(min_value=0, max_value=3), st.floats(min_value=0, max_value=3),
       st.one_of(t_anywhere, t_near_c))
@example(0, 1, (30, 1))
@example(0, 1, (30, -1))
@example(0, 0, 50)
def test_axial_t_kernel_against_ellipk(b, c, t):
    # a node next to the panel end t = c, as the quadrature passes it: t is
    # rounded and xc = c - t exact, so the node is c - xc.  The reference
    # is taken 40 digits higher, plus the digits that 1 - m spends on
    # holding m there.
    b, c = ENGINE.mpf(b), ENGINE.mpf(c)
    if isinstance(t, tuple):
        k, s = t
        xc = s * ENGINE.mpf(10) ** -k
        if xc >= c:
            xc = -abs(xc)
        t = c - xc
    else:
        t = ENGINE.mpf(t)
        xc = c - t
    assume(b > 0 or xc != 0)
    ref_mp = context(WORKING + 40 + 2 * max(0, math.ceil(-ENGINE.log10(abs(xc) + b))))
    be, ce = ref_mp.convert(b), ref_mp.convert(c)
    te = ce - ref_mp.convert(xc) if abs(xc) < c / 2 else ref_mp.convert(t)
    den2 = be * be + (ce + te) ** 2
    ref = ref_mp.ellipk(4 * ce * te / den2) * te / ((1 + te * te) ** 1.5 * ref_mp.sqrt(den2))
    value = kernels.axial_t_kernel(ENGINE, b, c)(t, xc)
    assert abs(ref_mp.convert(value) - ref) <= K_TOL * abs(ref)


# theta near atan c: the distance atan c - th is s 10^-k, down to 1e-30
theta_near_peak = st.tuples(st.integers(min_value=1, max_value=30), sign)
theta_anywhere = st.floats(min_value=0.05, max_value=math.pi / 2 - 0.05)


def theta_node_and_reference(b, c, theta):
    """A theta node and the printed theta integrand there, from mp.ellipk.

    The printed integrand is K(sqrt(4c tan th / den2)) sin th / sqrt(den2),
    den2 = b^2 + (c + tan th)^2.  A node next to the panel end atan c is
    passed as the quadrature passes it: th is rounded and thc = atan c - th
    exact.  The reference is taken as in the t-form test.  Returns
    (th, thc, the exact gap c - tan th, the reference, its context).
    """
    b, c = ENGINE.mpf(b), ENGINE.mpf(c)
    peak = ENGINE.atan(c)
    if isinstance(theta, tuple):
        k, s = theta
        thc = s * ENGINE.mpf(10) ** -k
        if thc >= peak:
            thc = -abs(thc)
        theta = peak - thc
    else:
        theta = ENGINE.mpf(theta)
        thc = peak - theta
    assume(b > 0 or thc != 0)
    ref_mp = context(WORKING + 40 + 2 * max(0, math.ceil(-ENGINE.log10(abs(thc) + b))))
    be, ce = ref_mp.convert(b), ref_mp.convert(c)
    te = ref_mp.atan(ce) - ref_mp.convert(thc) if abs(thc) < peak / 2 else ref_mp.convert(theta)
    tan_te = ref_mp.tan(te)
    den2 = be * be + (ce + tan_te) ** 2
    ref = ref_mp.ellipk(4 * ce * tan_te / den2) * ref_mp.sin(te) / ref_mp.sqrt(den2)
    return theta, thc, ce - tan_te, ref, ref_mp


axial_theta_nodes = given(
    st.floats(min_value=0, max_value=3), st.floats(min_value=0.05, max_value=3),
    st.one_of(theta_anywhere, theta_near_peak))


@oracle_settings
@axial_theta_nodes
@example(0, 1, (30, 1))
@example(0, 1, (30, -1))
def test_axial_integrand_of_bc_against_ellipk(b, c, theta):
    # axial_kernel, the theta form the substitution chain integrates,
    # against the printed theta integrand
    theta, thc, _, ref, ref_mp = theta_node_and_reference(b, c, theta)
    value = kernels.axial_kernel(ENGINE, ENGINE.mpf(b), ENGINE.mpf(c))(theta, thc)
    assert abs(ref_mp.convert(value) - ref) <= K_TOL * abs(ref)


@oracle_settings
@axial_theta_nodes
@example(0, 1, (30, 1))
@example(0, 1, (30, -1))
def test_axial_t_kernel_is_the_theta_form_over_its_jacobian(b, c, theta):
    # dt = (1 + tan^2 th) dth: the t form at tan th, given the exact gap
    # c - tan th, times 1 + tan^2 th, is the printed theta integrand at th
    theta, _, gap, ref, ref_mp = theta_node_and_reference(b, c, theta)
    t = ENGINE.tan(theta)
    in_t = kernels.axial_t_kernel(ENGINE, ENGINE.mpf(b), ENGINE.mpf(c))(t, ENGINE.convert(gap))
    value = in_t * (1 + t * t)
    assert abs(ref_mp.convert(value) - ref) <= K_TOL * abs(ref)


# The integer AGM core: K from kc at `digits` working digits, against
# mp.ellipk 40 digits higher.  The reference context also carries the
# 2 log10(1/kc) digits that 1 - kc^2 needs to hold kc at all.
def context(dps):
    mp = MPContext()
    mp.dps = dps
    return mp


def k_from_kc_error(e, digits):
    """Relative error of K from kc = 10^e at `digits` digits."""
    mp = context(digits)
    kc = mp.mpf(10) ** mp.mpf(e)
    ref_mp = context(digits + 40 + 2 * max(0, math.ceil(-e)))
    ref = ref_mp.ellipk(1 - ref_mp.convert(kc) ** 2)
    value = ellipk_real_mp(mp, kc)
    return abs(ref_mp.convert(value) - ref) / ref


@oracle_settings
@given(st.floats(min_value=-300, max_value=6), st.sampled_from((30, 70, 140, 320)))
@example(-300, 320)
@example(6, 320)
@example(0.5, 30)  # kc > 1: parameter m < 0
def test_ellipk_from_kc_across_decades(e, digits):
    assert k_from_kc_error(e, digits) <= EXACT.mpf(10) ** -digits


def test_ellipk_from_tiny_kc_keeps_its_digits():
    # kc = 1e-19 scaled by 2^(prec + 20) alone keeps only 126 of its 169
    # bits; the working precision must grow by the exponent of 1/kc
    assert k_from_kc_error(-19, 50) <= EXACT.mpf(10) ** -50


@oracle_settings
@given(st.floats(min_value=1, max_value=300), st.integers(min_value=30, max_value=150))
@example(40, 50)
def test_ellipk_complementary_at_small_parameter(e, digits):
    # K(1 - m) for m = 10^-e: the reference needs the e digits that 1 - m
    # spends on holding m
    mp = context(digits)
    m = mp.mpf(10) ** -mp.mpf(e)
    ref_mp = context(digits + 40 + math.ceil(e))
    ref = ref_mp.ellipk(1 - ref_mp.convert(m))
    value = ellipk_complementary(m, PrecisionContext(digits))
    assert abs(ref_mp.convert(value) - ref) <= ref_mp.mpf(10) ** -digits * ref


decades = st.floats(min_value=-50, max_value=50)


@oracle_settings
@given(decades, decades)
def test_agm_against_mpmath(ea, eb):
    a, b = REF.mpf(10) ** REF.mpf(ea), REF.mpf(10) ** REF.mpf(eb)
    ref = REF.agm(a, b)
    assert abs(REF.convert(agm(a, b, CTX)) - ref) <= REF.mpf(10) ** -CTX.digits * ref


def test_k_of_x_memo_saves_k_calls(monkeypatch):
    # mirror-image nodes of the panels (0, 1/2) and (1/2, 1) share an exact
    # kc, and k_of_x evaluates K once per kc; from empty K tables, since a
    # warm table answers every node without calling K at all
    calls = []

    def counting(mp, kc):
        calls.append(kc)
        return ellipk_real_mp(mp, kc)
    monkeypatch.setattr(kernels, "_k_tables", {})
    monkeypatch.setattr(kernels, "ellipk_real_mp", counting)
    ctx = PrecisionContext(WORKING)
    spec = IntegralSpec("k_of_x", (), (0, 1), k_of_x, singular_points=(0.5,))
    memoised = integrate(spec, ctx)
    assert 0 < len(calls) < memoised.evaluations
    assert len(calls) == len(set(calls))

    def unmemoised(mp):
        to_half = offset(mp, mp.mpf(0.5))
        return lambda x, xc: ellipk_real_mp(mp, 2 * abs(to_half(x, xc)))
    plain = integrate(IntegralSpec("k_plain", (), (0, 1), unmemoised, singular_points=(0.5,)), ctx)
    assert memoised.value == plain.value
    assert memoised.evaluations == plain.evaluations
