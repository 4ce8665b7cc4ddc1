from math import comb

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from multiell import (DomainError, IntegralSpec, PrecisionContext, kernel_expansion_partial_sum,
                      ellipk, generating_function_check, integrate, legendre_p,
                      orthogonality_gram)
from multiell.kernels import k_of_x
from multiell.legendre import GRAM_MAX_ORDER, _gram_factory, legendre_p_mp
from multiell.quadrature import GUARD, Fixed, fraction_bits


def binomial_sum_oracle(mp, n, x):
    """P_n(x) = 2^-n sum_k C(n,k)^2 (x-1)^(n-k) (x+1)^k, evaluated directly."""
    acc = mp.zero
    for k in range(n + 1):
        acc += comb(n, k) ** 2 * (x - 1) ** (n - k) * (x + 1) ** k
    return acc / 2 ** n


def test_p0_and_p1(ctx):
    mp = ctx.mp
    for x_str in ("-1", "0.3", "7"):
        x = mp.mpf(x_str)
        assert legendre_p(0, x, ctx) == 1
        assert legendre_p(1, x, ctx) == x


def test_recurrence_matches_binomial_sum(ctx):
    mp = ctx.mp
    tol = mp.mpf(10) ** (-ctx.digits + 8)
    for n in range(13):
        for x_str in ("-1", "-0.5", "0", "0.3", "1"):
            x = mp.mpf(x_str)
            assert abs(legendre_p(n, x, ctx) - binomial_sum_oracle(mp, n, x)) <= tol


def test_p6_at_03_frozen_value(ctx):
    # exact rational value 2066899/16000000, frozen from the binomial oracle
    mp = ctx.mp
    expected = mp.mpf(2066899) / 16000000
    assert abs(legendre_p(6, mp.mpf("0.3"), ctx) - expected) <= mp.mpf(10) ** (-ctx.digits + 5)
    assert abs(binomial_sum_oracle(mp, 6, mp.mpf("0.3")) - expected) <= mp.mpf(10) ** (-ctx.digits + 5)


def test_degree_validation(ctx):
    with pytest.raises(DomainError):
        legendre_p(-1, 0.5, ctx)


def test_generating_function_zero_parameter(ctx):
    assert generating_function_check(0, ctx.mp.mpf("0.3"), 0, ctx) == 0


def test_generating_function_geometric_decay(ctx):
    mp = ctx.mp
    gap = generating_function_check(mp.mpf("0.5"), mp.mpf("0.3"), 100, ctx)
    assert gap <= mp.mpf(2) ** -95


def test_generating_function_at_endpoint(ctx):
    # P_n(1) = 1, so the partial sum is geometric and the gap is a^(N+1)/(1-a)
    mp = ctx.mp
    a = mp.mpf("0.9")
    n_terms = 50
    gap = generating_function_check(a, mp.one, n_terms, ctx)
    expected = a ** (n_terms + 1) / (1 - a)
    assert abs(gap - expected) <= mp.mpf(10) ** (-ctx.digits + 8)


def test_generating_function_domain(ctx):
    with pytest.raises(DomainError):
        generating_function_check(1, 0.3, 10, ctx)


def test_gram_matrix(ctx):
    mp = ctx.mp
    order = 12
    gram = orthogonality_gram(order, ctx)
    tol = 10 * ctx.quad_target
    for n in range(order + 1):
        for m in range(order + 1):
            exact = mp.one / (2 * n + 1) if n == m else mp.zero
            assert abs(gram[n][m] - exact) <= tol, (n, m)
    assert abs(gram[0][0] - 1) <= tol
    assert abs(gram[3][5]) <= tol
    assert abs(gram[4][4] - mp.one / 9) <= tol


def test_gram_matrix_is_one_integral(ctx, monkeypatch):
    # P_0..P_12 are evaluated once per node for all 91 products
    import multiell.legendre as legendre
    results = []

    def recording(spec, ctx, **kw):
        results.append(integrate(spec, ctx, **kw))
        return results[-1]
    monkeypatch.setattr(legendre, "integrate", recording)
    gram = orthogonality_gram(12, ctx)
    assert [(len(r.value), r.evaluations) for r in results] == [(91, 589)]
    assert gram[12][3] is gram[3][12] is results[0].value[78 + 3]


def test_gram_cost_guard(ctx):
    with pytest.raises(DomainError):
        orthogonality_gram(21, ctx)


def test_kernel_expansion_slow_pointwise_convergence(ctx):
    mp = ctx.mp
    x = mp.mpf("0.25")
    target = 4 * ellipk(4 * x * (1 - x), ctx) / mp.pi ** 2
    assert abs(kernel_expansion_partial_sum(x, 2000, ctx) - target) <= mp.mpf("1e-3")


def test_kernel_expansion_at_origin(ctx):
    # modulus zero: 4 K(0)/pi^2 = 2/pi; endpoint convergence is the slowest
    mp = ctx.mp
    assert abs(kernel_expansion_partial_sum(0, 4000, ctx) - 2 / mp.pi) <= mp.mpf("0.012")


def test_kernel_expansion_integrates_to_one(ctx):
    # only the constant term survives integration over (0,1)
    def factory(mp, n_terms):
        def f(x, xc):
            y = 2 * x - 1
            acc = mp.one
            q = mp.one
            p_prev, p_cur = mp.one, y
            k = 1
            for n in range(1, n_terms + 1):
                r = (2 * n - 1) / mp.mpf(2 * n)
                q *= -(r * r * r)
                while k < 2 * n:
                    p_prev, p_cur = p_cur, ((2 * k + 1) * y * p_cur - k * p_prev) / (k + 1)
                    k += 1
                acc += q * (4 * n + 1) * p_cur
            return acc
        return f
    spec = IntegralSpec("kernel_expansion_partial", (50,), (0, 1), factory)
    r = integrate(spec, ctx)
    assert abs(r.value - 1) <= ctx.pass_tol


@pytest.mark.parametrize("n", [0, 1, 2])
def test_odd_index_projections_vanish(ctx, n):
    # x <-> 1-x symmetry kills every odd-index coefficient of the K kernel
    def factory(mp, degree):
        k = k_of_x(mp)
        def f(x, xc):
            return legendre_p_mp(mp, degree, 2 * x - 1) * k(x, xc)
        return f
    spec = IntegralSpec(f"odd_projection_{n}", (2 * n + 1,), (0, 1), factory,
                        singular_points=(0.5,))
    r = integrate(spec, ctx)
    assert abs(r.value) <= 10 * ctx.quad_target


@pytest.mark.parametrize("digits", [30, 100])
@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(x=st.floats(min_value=0, max_value=1))
@example(x=0.0)
@example(x=1.0)
@example(x=1e-300)
def test_gram_integrand_matches_mpf_products(digits, x):
    # the Gram integrand's integer recurrence against P_n P_m from the mpf
    # recurrence 40 digits above the engine, for every n <= GRAM_MAX_ORDER.
    # 2x - 1 is truncated to 2^-wp, by at most 2 units, and |d(P_n P_m)/dy|
    # <= (n(n+1) + m(m+1))/2 on [-1, 1]; the floor divisions of the
    # recurrence add as much again
    emp = PrecisionContext(digits).boosted(GUARD).mp
    ref = PrecisionContext(digits + GUARD + 40).mp
    wp = fraction_bits(emp)
    x = emp.mpf(x)
    value = _gram_factory(emp, GRAM_MAX_ORDER)(x, None)
    assert type(value) is Fixed and value.exp <= -wp
    y = 2 * ref.convert(x) - 1
    p = [legendre_p_mp(ref, n, y) for n in range(GRAM_MAX_ORDER + 1)]
    pairs = [(n, m) for n in range(GRAM_MAX_ORDER + 1) for m in range(n + 1)]
    assert len(value.mantissas) == len(pairs)
    for (n, m), mantissa in zip(pairs, value.mantissas):
        tol = 2 * (n * (n + 1) + m * (m + 1) + 2)
        assert abs(ref.ldexp(mantissa, value.exp) - p[n] * p[m]) <= ref.ldexp(tol, -wp), (n, m)
