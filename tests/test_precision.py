import random

import pytest

from multiell import (DomainError, PrecisionContext, SeriesId, agm, apply_annihilator_fd,
                      clausen_sum, clausen_sum_da, ellipk, ellipk_complementary,
                      ellipk_series, gamma, generating_integral_closed_form,
                      laplace_residual, legendre_sum, ode_annihilator_residual,
                      ode_annihilator_residual_closed_form, orthogonality_gram,
                      ramanujan_sum)
from multiell.precision import MIN_DIGITS
from multiell.series import bridge_from_data


def test_context_invariants(ctx):
    assert ctx.digits == 50
    assert ctx.quad_target == ctx.mp.mpf(10) ** -40
    assert ctx.pass_tol == ctx.mp.mpf(10) ** -35
    assert ctx.pass_tol > ctx.quad_target


def test_digits_floor():
    with pytest.raises(DomainError):
        PrecisionContext(29)
    with pytest.raises(DomainError):
        PrecisionContext(50.0)


def test_pass_tol_override():
    ctx = PrecisionContext(50, pass_tol="1e-30")
    assert ctx.pass_tol == ctx.mp.mpf(10) ** -30
    with pytest.raises(DomainError):
        PrecisionContext(50, pass_tol="1e-45")  # would undercut quad_target
    with pytest.raises(DomainError):
        PrecisionContext(50, pass_tol="abc")


def test_boosted_contexts_are_cached_and_larger(ctx):
    hi = ctx.boosted(30)
    assert hi.digits == 80
    assert ctx.boosted(30) is hi
    x = hi.mp.sqrt(2)
    back = ctx.reduce(x)
    assert back == ctx.mp.sqrt(2)


@pytest.mark.parametrize("digits", [30, 50, 300])
@pytest.mark.parametrize("other", [10, 400])
def test_reduce_rounds_as_convert_does(digits, other):
    # an mpf and an mpc from a context of higher or lower precision reduce
    # bit-identically to +mp.convert; ints and strings still reduce
    ctx, mp = PrecisionContext(digits), PrecisionContext(MIN_DIGITS + other).mp
    for value in (mp.pi, mp.sqrt(2) * -3, mp.mpf(10) ** -1000 / 7, mp.mpc(mp.e, -mp.pi) / 3):
        want = +ctx.mp.convert(value)
        got = ctx.reduce(value)
        assert type(got) is type(want)
        assert getattr(got, "_mpf_", None) == getattr(want, "_mpf_", None)
        assert getattr(got, "_mpc_", None) == getattr(want, "_mpc_", None)
    assert ctx.reduce(3) == 3 and type(ctx.reduce(3)) is ctx.mp.mpf
    assert ctx.reduce("0.1") == ctx.mp.mpf("0.1")


def test_principal_sqrt_branch(ctx):
    mp = ctx.mp
    rng = random.Random(20240817)
    tol = mp.mpf(10) ** (-ctx.digits + 2)
    for _ in range(100):
        re = mp.mpf(rng.uniform(-10, 10))
        im = mp.mpf(rng.uniform(-10, 10))
        if im == 0 and re <= 0:
            continue  # branch cut
        z = mp.mpc(re, im)
        root = mp.sqrt(z)
        assert abs(root * root - z) <= tol * abs(z)
        if im > 0:
            assert root.imag >= 0
        # principal branch: arg of the root in (-pi/2, pi/2]
        assert -mp.pi / 2 < mp.arg(root) <= mp.pi / 2


NONFINITE_CALLS = {
    "ellipk": lambda v, ctx: ellipk(v, ctx),
    "ellipk_complementary": lambda v, ctx: ellipk_complementary(v, ctx),
    "agm_a": lambda v, ctx: agm(v, 1, ctx),
    "agm_b": lambda v, ctx: agm(1, v, ctx),
    "generating_integral_closed_form": lambda v, ctx: generating_integral_closed_form(v, ctx),
    "gamma": lambda v, ctx: gamma(v, ctx),
    "laplace_residual_b": lambda v, ctx: laplace_residual(1, v, 1, ctx),
    "laplace_residual_c": lambda v, ctx: laplace_residual(1, 1, v, ctx),
    "ode_annihilator_residual": lambda v, ctx: ode_annihilator_residual(v, ctx),
    "ode_annihilator_residual_closed_form":
        lambda v, ctx: ode_annihilator_residual_closed_form(v, ctx),
    "apply_annihilator_fd": lambda v, ctx: apply_annihilator_fd(lambda t: t, v, ctx),
    "bridge_from_data_A": lambda v, ctx: bridge_from_data(v, 1, "-0.125", ctx),
    "bridge_from_data_B": lambda v, ctx: bridge_from_data(6, v, "-0.125", ctx),
    "bridge_from_data_z": lambda v, ctx: bridge_from_data(6, 1, v, ctx),
    "clausen_sum": lambda v, ctx: clausen_sum(v, 10, ctx),
    "clausen_sum_da": lambda v, ctx: clausen_sum_da(v, 10, ctx),
    "legendre_sum": lambda v, ctx: legendre_sum(v, 10, ctx),
    "ellipk_series": lambda v, ctx: ellipk_series(v, 10, ctx),
}


@pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
@pytest.mark.parametrize("name", sorted(NONFINITE_CALLS))
def test_nonfinite_arguments_raise_domain_error(ctx30, name, value):
    # one shared check: none of these returns a value or raises another error
    with pytest.raises(DomainError, match="requires a finite argument"):
        NONFINITE_CALLS[name](ctx30.mp.mpf(value), ctx30)


# the real-only entry points: a complex argument is outside their domain,
# not a comparison that Python cannot make
REAL_CALLS = {name: NONFINITE_CALLS[name] for name in (
    "ellipk", "ellipk_complementary", "agm_a", "agm_b", "generating_integral_closed_form",
    "gamma", "laplace_residual_b", "ode_annihilator_residual",
    "ode_annihilator_residual_closed_form", "apply_annihilator_fd", "bridge_from_data_A",
    "bridge_from_data_B", "bridge_from_data_z", "clausen_sum", "clausen_sum_da",
    "legendre_sum", "ellipk_series")}


@pytest.mark.parametrize("value", [(2, 1), (0, 1)])
@pytest.mark.parametrize("name", sorted(REAL_CALLS))
def test_complex_arguments_raise_domain_error(ctx30, name, value):
    with pytest.raises(DomainError, match="requires a real argument"):
        REAL_CALLS[name](ctx30.mp.mpc(*value), ctx30)


# every public function that takes a count (terms or order), with its other
# arguments valid; each checks the count through precision._count
COUNTED = {
    "clausen_sum": lambda n, ctx: clausen_sum(0.5, n, ctx),
    "clausen_sum_da": lambda n, ctx: clausen_sum_da(0.5, n, ctx),
    "legendre_sum": lambda n, ctx: legendre_sum(0.5, n, ctx),
    "ramanujan_sum": lambda n, ctx: ramanujan_sum(SeriesId.RAMANUJAN_2SQRT2, n, ctx),
    "ellipk_series": lambda n, ctx: ellipk_series(0.5, n, ctx),
    "orthogonality_gram": lambda n, ctx: orthogonality_gram(n, ctx),
}


@pytest.mark.parametrize("count", [-3, 2.5, "4", True, False], ids=repr)
@pytest.mark.parametrize("name", COUNTED)
def test_counts_must_be_nonnegative_ints(ctx, name, count):
    with pytest.raises(DomainError):
        COUNTED[name](count, ctx)


@pytest.mark.parametrize("name", COUNTED)
def test_count_zero_is_accepted(ctx, name):
    COUNTED[name](0, ctx)
