import pytest

from multiell import (DomainError, PrecisionContext, ellipk,
                      ellipk_complementary, gamma,
                      generating_integral_closed_form, integrate, lambda_star,
                      rhs_constant, singular_value_residual)
from multiell.kernels import weighted_kernel_spec
from multiell.singular import SINGULAR_VALUES, SUPPORTED_R

# frozen from the reflection/multiplication-verified library gamma at 70 digits
FROZEN = {
    "I3": "2.430745256919893258306942271172682734616065836968574",
    "I4": "1.27702892945813913378054862643794345071944909268832",
    "I5": "0.3090315375176591710311373105115236027769894162233494",
}


def test_lambda_star_closed_forms(ctx):
    mp = ctx.mp
    assert lambda_star(4, ctx) == +(3 - 2 * mp.sqrt(2))
    assert lambda_star(3, ctx) == +(mp.sqrt(2) * (mp.sqrt(3) - 1) / 4)
    assert lambda_star(7, ctx) == +(mp.sqrt(2) * (3 - mp.sqrt(7)) / 8)


def test_lambda_star_in_unit_interval(ctx):
    for r in (3, 4, 7):
        lam = lambda_star(r, ctx)
        assert 0 < lam < 1


def test_unsupported_r(ctx):
    with pytest.raises(DomainError):
        lambda_star(5, ctx)


@pytest.mark.parametrize("r", SUPPORTED_R)
def test_defining_property_residuals(ctx, r):
    assert singular_value_residual(r, ctx) <= ctx.pass_tol


def test_complementary_ratio_at_lambda4(ctx):
    mp = ctx.mp
    m = lambda_star(4, ctx) ** 2
    ratio = ellipk_complementary(m, ctx) / ellipk(m, ctx)
    assert abs(ratio - 2) <= ctx.pass_tol


@pytest.mark.parametrize("identity_id", ["I3", "I4", "I5"])
def test_rhs_constants_against_frozen_oracle(ctx, identity_id):
    mp = ctx.mp
    assert abs(rhs_constant(identity_id, ctx) - mp.mpf(FROZEN[identity_id])) \
        <= mp.mpf(10) ** (-ctx.digits + 5)


@pytest.mark.parametrize("identity_id", ["I3", "I4", "I5"])
def test_rhs_constants_at_300_digits(identity_id):
    # the gamma closed forms, rebuilt from mpmath's gamma 20 digits higher
    ctx = PrecisionContext(300)
    mp = ctx.boosted(20).mp
    g = mp.gamma
    truth = {
        "I3": g(mp.one / 4) ** 4 / (16 * mp.sqrt(2) * mp.pi),
        "I4": mp.sqrt(3) * g(mp.one / 3) ** 6 / (2 ** (mp.mpf(17) / 3) * mp.pi ** 2),
        "I5": (g(mp.one / 7) * g(mp.mpf(2) / 7) * g(mp.mpf(4) / 7)) ** 2
              / (128 * mp.sqrt(7) * mp.pi ** 2),
    }[identity_id]
    value = mp.convert(rhs_constant(identity_id, ctx))
    assert abs(value - truth) <= mp.mpf(10) ** -ctx.digits * truth


def test_unknown_constant_id(ctx):
    with pytest.raises(DomainError):
        rhs_constant("I8", ctx)


def test_gamma_multiplication_formula_seventh(ctx):
    # independent oracle for the gamma values entering the r=7 constant:
    # product of Gamma(k/7), k=1..6, equals (2 pi)^3 / sqrt(7)
    mp = ctx.mp
    product = mp.one
    for k in range(1, 7):
        product *= gamma(mp.mpf(k) / 7, ctx)
    assert abs(product - (2 * mp.pi) ** 3 / mp.sqrt(7)) <= mp.mpf(10) ** (-ctx.digits + 10)


def test_closed_form_bridge_r4(ctx):
    # the a = 1/sqrt(8) closed form equals the r=4 gamma constant
    mp = ctx.mp
    value = generating_integral_closed_form(1 / mp.sqrt(8), ctx)
    assert abs(value - rhs_constant("I3", ctx)) <= ctx.pass_tol


def test_quadrature_bridge_r4(ctx):
    mp = ctx.mp
    a = 1 / mp.sqrt(8)
    (value,) = integrate(weighted_kernel_spec((a,)), ctx).value
    assert abs(value - rhs_constant("I3", ctx)) <= ctx.pass_tol


def test_squared_k_bridge_r3(ctx):
    # [K at parameter lambda*(3)^2]^2 / 2 equals the r=3 gamma constant
    mp = ctx.mp
    m = lambda_star(3, ctx) ** 2
    assert abs(ellipk(m, ctx) ** 2 / 2 - rhs_constant("I4", ctx)) <= ctx.pass_tol


def test_squared_k_bridge_r7(ctx):
    mp = ctx.mp
    m = lambda_star(7, ctx) ** 2
    assert abs(ellipk(m, ctx) ** 2 / 8 - rhs_constant("I5", ctx)) <= ctx.pass_tol


# Entry rule of the singular-value table: every entry's closed forms, taken at
# 300 digits, against references mpmath computes 20 digits higher.  A mistyped
# digit in any entry fails one of these.
ENTRY_DIGITS = 300


def _entry(r):
    """(entry, mp at 300 digits, reference mp 20 digits higher, lambda*(r) in the reference)."""
    ctx = PrecisionContext(ENTRY_DIGITS)
    ref = ctx.boosted(20).mp
    entry = SINGULAR_VALUES[r]
    return entry, ctx.mp, ref, ref.convert(entry.lam(ctx.mp))


def _close(ref, value, truth):
    return abs(ref.convert(value) - truth) <= ref.mpf(10) ** (3 - ENTRY_DIGITS) * abs(truth)


def test_table_keys_are_the_supported_r():
    assert SUPPORTED_R == tuple(SINGULAR_VALUES)
    assert {3, 4, 7, 12} <= set(SUPPORTED_R)


@pytest.mark.parametrize("r", sorted(SINGULAR_VALUES))
def test_entry_lambda_is_the_theta_quotient(r):
    # lambda*(r) = theta_2^2 / theta_3^2 at the nome q = exp(-pi sqrt r)
    _, _, ref, lam = _entry(r)
    q = ref.exp(-ref.pi * ref.sqrt(r))
    assert _close(ref, lam, (ref.jtheta(2, 0, q) / ref.jtheta(3, 0, q)) ** 2)


@pytest.mark.parametrize("r", [r for r, e in SINGULAR_VALUES.items() if e.series])
def test_entry_series_base_and_sum(r):
    # z = -4 lambda^2 / (1 - lambda^2)^2, and
    # B 3F2(1/2,1/2,1/2; 1,1; z) + (A z / 8) 3F2(3/2,3/2,3/2; 2,2; z) = T / pi
    entry, mp, ref, lam = _entry(r)
    z, big_a, big_b, t = (ref.convert(v) for v in entry.series(mp))
    assert _close(ref, z, -4 * lam ** 2 / (1 - lam ** 2) ** 2)
    half, three_halves = ref.mpf(1) / 2, ref.mpf(3) / 2
    total = (big_b * ref.hyp3f2(half, half, half, 1, 1, z)
             + big_a * z / 8 * ref.hyp3f2(three_halves, three_halves, three_halves, 2, 2, z))
    assert _close(ref, total, t / ref.pi)


@pytest.mark.parametrize("r", [r for r, e in SINGULAR_VALUES.items() if e.beta])
def test_entry_beta_from_lambda(r):
    # beta^2 = 1 - (1 - 2 lambda^2)^2, so that I1(i beta) = K(lambda^2)^2
    entry, mp, ref, lam = _entry(r)
    assert _close(ref, entry.beta(mp), ref.sqrt(1 - (1 - 2 * lam ** 2) ** 2))


@pytest.mark.parametrize("r", [r for r, e in SINGULAR_VALUES.items() if e.gamma])
def test_entry_gamma_form_is_squared_k(r):
    # the row's Gamma form is beta K(lambda^2)^2 at an imaginary point i beta
    # (r = 3, 7) and (1 - lambda^2) K(lambda^2)^2 at the real point sqrt(-z) (r = 4)
    entry, mp, ref, lam = _entry(r)
    factor = ref.convert(entry.beta(mp)) if entry.beta else 1 - lam ** 2
    assert _close(ref, entry.gamma(mp, mp.gamma), factor * ref.ellipk(lam ** 2) ** 2)
