import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from multiell import DomainError, IntegralSpec, PrecisionContext, integrate, orthogonality_gram
from multiell.kernels import k_of_x
from multiell.legendre import GRAM_MAX_ORDER, _gram_factory
from multiell.quadrature import GUARD, Fixed, fraction_bits


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
    # each entry is its component, rounded once to ctx.digits
    assert gram[12][3] is gram[3][12]
    assert gram[3][12] == ctx.reduce(results[0].value[78 + 3])
    assert type(gram[3][12]) is ctx.mp.mpf


def test_gram_cost_guard(ctx):
    with pytest.raises(DomainError):
        orthogonality_gram(21, ctx)


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
            return mp.legendre(degree, 2 * x - 1) * k(x, xc)
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
    # the Gram integrand's integer recurrence against P_n P_m from mpmath's
    # legendre 40 digits above the engine, for every n <= GRAM_MAX_ORDER.
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
    p = [ref.legendre(n, y) for n in range(GRAM_MAX_ORDER + 1)]
    pairs = [(n, m) for n in range(GRAM_MAX_ORDER + 1) for m in range(n + 1)]
    assert len(value.mantissas) == len(pairs)
    for (n, m), mantissa in zip(pairs, value.mantissas):
        tol = 2 * (n * (n + 1) + m * (m + 1) + 2)
        assert abs(ref.ldexp(mantissa, value.exp) - p[n] * p[m]) <= ref.ldexp(tol, -wp), (n, m)
