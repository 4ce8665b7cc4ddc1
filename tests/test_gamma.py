import time

import mpmath
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from mpmath.ctx_mp import MPContext

from multiell import DomainError, PrecisionContext, gamma
from multiell.gammafn import SHIFT_MAX


def test_gamma_one(ctx):
    assert abs(gamma(1, ctx) - 1) <= ctx.mp.mpf(10) ** (-ctx.digits + 5)


def test_gamma_half_is_sqrt_pi(ctx):
    mp = ctx.mp
    assert abs(gamma(mp.mpf("0.5"), ctx) - mp.sqrt(mp.pi)) <= mp.mpf(10) ** (-ctx.digits + 5)


def test_gamma_quarter_reflection_product(ctx):
    # independent oracle: Gamma(1/4) Gamma(3/4) = pi / sin(pi/4) = pi sqrt(2)
    mp = ctx.mp
    product = gamma(mp.mpf("0.25"), ctx) * gamma(mp.mpf("0.75"), ctx)
    assert abs(product - mp.pi * mp.sqrt(2)) <= mp.mpf(10) ** (-ctx.digits + 6)


def test_gamma_recurrence_grid(ctx):
    mp = ctx.mp
    tol = mp.mpf(10) ** (-ctx.digits + 6)
    x = mp.mpf("0.1")
    while x <= 5:
        lhs = gamma(x + 1, ctx)
        rhs = x * gamma(x, ctx)
        assert abs(lhs - rhs) <= tol * abs(rhs), f"recurrence failed at x={x}"
        x += mp.mpf("0.15")


def test_gamma_against_library_oracle(ctx):
    ref = mpmath.mp
    old = ref.dps
    ref.dps = ctx.digits + 15
    try:
        for s in ("0.25", "0.3333333333333333333333", "0.71428571", "1.5",
                  "2.25", "5.5", "9.75", "0.05"):
            ours = ctx.mp.convert(gamma(ctx.mp.mpf(s), ctx))
            theirs = ctx.mp.convert(ref.gamma(ref.mpf(s)))
            assert abs(ours - theirs) <= abs(theirs) * ctx.mp.mpf(10) ** (-ctx.digits + 5)
    finally:
        ref.dps = old


@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(st.integers(min_value=30, max_value=300),
       st.floats(min_value=0, max_value=100, exclude_min=True))
@example(300, 100.0)
@example(300, 0.25)
@example(50, 40.0)
def test_gamma_to_full_working_digits(digits, x):
    ref = MPContext()
    ref.dps = digits + 20
    truth = ref.gamma(ref.mpf(x))
    value = ref.convert(gamma(x, PrecisionContext(digits)))
    assert abs(value - truth) <= ref.mpf(10) ** -digits * truth


def test_gamma_domain(ctx):
    with pytest.raises(DomainError):
        gamma(0, ctx)
    with pytest.raises(DomainError):
        gamma(-2.5, ctx)


@pytest.mark.parametrize("digits", [50, 300])
@pytest.mark.parametrize("x", [1234567.7, 1e12 + 0.7, 1e30])
def test_gamma_at_large_x_is_accurate_and_bounded(digits, x):
    # above SHIFT_MAX the series runs at x itself: no step per unit of x.
    # The warm-up fills the coefficient tables, so the timed call is the
    # evaluation alone, about 10 ms at 300 digits on a 2-core VM
    ctx = PrecisionContext(digits)
    gamma(SHIFT_MAX + 50.5, ctx)
    start = time.perf_counter()
    value = gamma(x, ctx)
    elapsed = time.perf_counter() - start
    ref = MPContext()
    ref.dps = digits + 20
    truth = ref.gamma(ref.mpf(x))
    assert abs(ref.convert(value) - truth) <= ref.mpf(10) ** -digits * truth
    assert elapsed < 0.2
