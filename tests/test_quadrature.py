import dataclasses

import pytest

from multiell import (DomainError, INF, IntegralSpec, IntegrandFailureError,
                      NonConvergenceError, integrate, rhs_constant)
from multiell.kernels import (axial_kernel, axial_t_spec, complex_kernel_r3,
                              complex_kernel_r7, k_of_x,
                              ratio_kernel_2sqrt2, re_k_semi_infinite_kernel,
                              signed_kernel_4sqrt2, singular_value_kernel_r4,
                              special_case_kernel, weighted_kernel_spec)

HALF = 0.5


def plain_spec(lo=0, hi=1, singular=(HALF,)):
    return IntegralSpec("k_of_x", (), (lo, hi), k_of_x, singular_points=singular)


def test_constant_one(ctx):
    spec = IntegralSpec("one", (), (0, 1), lambda mp: (lambda x, xc: mp.one))
    r = integrate(spec, ctx)
    assert abs(r.value - 1) <= ctx.mp.mpf(10) ** (-ctx.digits + 5)
    assert r.err_estimate < ctx.mp.mpf(10) ** (-ctx.digits + 5)
    assert r.panels == 1


def test_plain_kernel_value(ctx):
    r = integrate(plain_spec(), ctx)
    assert abs(r.value - ctx.mp.pi ** 2 / 4) <= 10 * r.err_estimate
    assert abs(r.value - ctx.mp.pi ** 2 / 4) <= ctx.quad_target
    assert r.panels == 2


def test_weighted_kernel_against_series_oracle(ctx):
    # sum route: (pi^2/4)[1 + sum (-1)^n ((1/2)_n/(1)_n)^3 a^(2n)], 300 terms
    mp = ctx.mp
    a = mp.mpf("0.5")
    term = mp.one
    acc = mp.one
    for n in range(300):
        r3 = (2 * n + 1) / mp.mpf(2 * n + 2)
        term *= -(a * a) * r3 ** 3
        acc += term
    oracle = mp.pi ** 2 / 4 * acc
    (value,) = integrate(weighted_kernel_spec((a,)), ctx).value
    assert abs(value - oracle) <= ctx.pass_tol


def test_split_symmetry(ctx):
    whole = integrate(plain_spec(), ctx)
    left = integrate(plain_spec(0, HALF, ()), ctx)
    right = integrate(plain_spec(HALF, 1, ()), ctx)
    assert abs((left.value + right.value) - whole.value) <= ctx.quad_target


def test_complex_kernel_r3_value(ctx):
    spec = IntegralSpec("complex_kernel_r3", (), (0, 1),
                        lambda mp: complex_kernel_r3(mp), singular_points=(HALF,))
    r = integrate(spec, ctx)
    assert abs(r.value.real - rhs_constant("I4", ctx)) <= ctx.pass_tol
    assert abs(r.value.imag) <= 10 * r.err_estimate


def test_complex_kernel_r7_value(ctx):
    spec = IntegralSpec("complex_kernel_r7", (), (0, 1),
                        lambda mp: complex_kernel_r7(mp), singular_points=(HALF,))
    r = integrate(spec, ctx)
    assert abs(r.value.real - rhs_constant("I5", ctx)) <= ctx.pass_tol
    assert abs(r.value.imag) <= 10 * r.err_estimate


def test_degenerate_complex_part_reduces_to_real_kernel(ctx):
    # zeroing the imaginary coefficient in a complex-kernel form must
    # reproduce the real r=4 integrand exactly
    def zeroed_factory(mp):
        k = k_of_x(mp)
        s2 = mp.sqrt(2)
        def f(x, xc):
            return k(x, xc) / mp.sqrt(mp.mpc(mp.mpf(9) / 8 + (1 - 2 * x) / s2, 0))
        return f
    zeroed = IntegralSpec("r4_zero_imag", (), (0, 1), zeroed_factory,
                          singular_points=(HALF,))
    real_spec = IntegralSpec("singular_value_kernel_r4", (), (0, 1),
                             lambda mp: singular_value_kernel_r4(mp),
                             singular_points=(HALF,))
    rz = integrate(zeroed, ctx)
    rr = integrate(real_spec, ctx)
    assert rz.value.imag == 0
    assert abs(rz.value.real - rr.value) <= ctx.quad_target


def test_exp_sinh_against_closed_form(ctx):
    # integral of (1+x^2)^(-3/2) over (0, inf) is exactly 1
    spec = IntegralSpec("algebraic_decay", (), (0, INF),
                        lambda mp: (lambda x, xc: (1 + x * x) ** mp.mpf("-1.5")))
    r = integrate(spec, ctx)
    assert abs(r.value - 1) <= 10 * r.err_estimate
    assert abs(r.value - 1) <= ctx.quad_target


@pytest.mark.parametrize("spec, calls, levels", [
    (plain_spec(), 602, 5),
    (IntegralSpec("re_k_semi_infinite", (1,), (0, INF), re_k_semi_infinite_kernel,
                  singular_points=(1,)), 938, 6),
    # I6's form: a tanh-sinh panel (0, c) and an exp-sinh panel (c, inf)
    (axial_t_spec(1, 1), 932, 6),
    (axial_t_spec(0, 1), 938, 6),
], ids=["tanh-sinh", "exp-sinh", "axial-t-b1-c1", "axial-t-b0-c1"])
def test_node_sets_are_pinned(ctx, spec, calls, levels):
    # integrand calls and depth at 50 digits fix each transform's node set
    count = [0]

    def counting(mp, *params):
        f = spec.factory(mp, *params)
        def g(x, xc):
            count[0] += 1
            return f(x, xc)
        return g

    r = integrate(dataclasses.replace(spec, factory=counting), ctx)
    assert (count[0], r.levels, r.panels) == (calls, levels, 2)


def _catalog_specs(ctx):
    mp = ctx.mp
    yield weighted_kernel_spec((mp.mpf("0.5"),), 3)
    yield plain_spec()
    yield IntegralSpec("ratio_kernel_2sqrt2", (), (0, 1),
                       lambda emp: ratio_kernel_2sqrt2(emp), singular_points=(HALF,))
    yield IntegralSpec("singular_value_kernel_r4", (), (0, 1),
                       lambda emp: singular_value_kernel_r4(emp), singular_points=(HALF,))
    yield IntegralSpec("complex_kernel_r3", (), (0, 1),
                       lambda emp: complex_kernel_r3(emp), singular_points=(HALF,))
    yield IntegralSpec("complex_kernel_r7", (), (0, 1),
                       lambda emp: complex_kernel_r7(emp), singular_points=(HALF,))
    yield IntegralSpec("special_case_kernel", (), (0, 1),
                       lambda emp: special_case_kernel(emp), singular_points=(HALF,))
    yield IntegralSpec("signed_kernel_4sqrt2", (), (0, 1),
                       lambda emp: signed_kernel_4sqrt2(emp), singular_points=(HALF,))
    yield IntegralSpec("re_k_semi_infinite", (mp.one,), (0, INF),
                       re_k_semi_infinite_kernel, singular_points=(1,))
    yield IntegralSpec("axial_kernel", (mp.one, mp.one), (0, lambda emp: emp.pi / 2),
                       axial_kernel)
    yield IntegralSpec("axial_kernel_b0", (0, mp.one), (0, lambda emp: emp.pi / 2),
                       axial_kernel, singular_points=((lambda emp: emp.atan(emp.one)),))


def _components(value):
    return value if isinstance(value, tuple) else (value,)


def test_level_doubling_stays_within_estimate(ctx):
    for spec in _catalog_specs(ctx):
        r1 = integrate(spec, ctx)
        r2 = integrate(spec, ctx, min_level=r1.levels + 1)
        for v2, v1, e1 in zip(*map(_components, (r2.value, r1.value, r1.err_estimate))):
            assert abs(v2 - v1) <= e1, spec.integrand_id


@pytest.mark.parametrize("c_str", ["0.5", "1", "2"])
def test_substitution_chain(ctx, c_str):
    # theta-form, x-form after theta = arctan(c x), and Re-K-form agree
    from multiell.kernels import axial_x_form_kernel
    mp = ctx.mp
    c = mp.mpf(c_str)
    theta = IntegralSpec("axial_kernel_b0", (0, c), (0, lambda emp: emp.pi / 2),
                         axial_kernel,
                         singular_points=((lambda emp: emp.atan(emp.convert(c))),))
    x_form = IntegralSpec("axial_x_form", (c,), (0, INF), axial_x_form_kernel,
                          singular_points=(1,))
    rek = IntegralSpec("re_k_semi_infinite", (c,), (0, INF),
                       re_k_semi_infinite_kernel, singular_points=(1,))
    values = [integrate(s, ctx).value for s in (theta, x_form, rek)]
    for i in range(3):
        for j in range(i + 1, 3):
            assert abs(values[i] - values[j]) <= ctx.pass_tol


def test_error_estimate_honesty(ctx):
    mp = ctx.mp
    cases = [
        (plain_spec(), mp.pi ** 2 / 4),
        (IntegralSpec("special_case_kernel", (), (0, 1),
                      lambda emp: special_case_kernel(emp), singular_points=(HALF,)),
         mp.pi / (2 * mp.sqrt(2))),
        (IntegralSpec("re_k_semi_infinite", (mp.one,), (0, INF),
                      re_k_semi_infinite_kernel, singular_points=(1,)),
         mp.pi / (2 * mp.sqrt(2))),
    ]
    for spec, truth in cases:
        r = integrate(spec, ctx)
        assert abs(r.value - truth) <= 10 * r.err_estimate, spec.integrand_id
        assert r.err_estimate >= 0


def test_nonconvergence_at_low_level_cap(ctx):
    with pytest.raises(NonConvergenceError):
        integrate(plain_spec(), ctx, max_level=2)


def test_integrand_failure_is_wrapped(ctx):
    def bad_factory(mp):
        def f(x, xc):
            if x > mp.mpf("0.7"):
                raise ValueError("deliberate failure")
            return mp.one
        return f
    spec = IntegralSpec("bad", (), (0, 1), bad_factory)
    with pytest.raises(IntegrandFailureError):
        integrate(spec, ctx)


@pytest.mark.parametrize("singular_at_half, message", [
    # a node 1e-101 from 1/2 rounds onto it, and log|x - 1/2| is -inf there
    (lambda mp: (lambda x, xc: mp.log(abs(x - mp.mpf(0.5)))), "rounds onto its panel end"),
    # one 3e-38 from 1/2 does not, but its parameter 4x(1-x) rounds to 1
    (lambda mp: (lambda x, xc: mp.ellipk(4 * x * (1 - x))), r"returned \+inf"),
], ids=["log", "ellipk"])
def test_integrand_ignoring_xc_fails_at_its_split(ctx, singular_at_half, message):
    spec = IntegralSpec("no_xc", (), (0, 1), singular_at_half, singular_points=(HALF,))
    with pytest.raises(IntegrandFailureError, match=message):
        integrate(spec, ctx)


def _mixed_factory(mp):
    # components of different difficulty: the log-singular K kernel, a
    # smooth polynomial and K under a peaked weight
    k = k_of_x(mp)
    def f(x, xc):
        kx = k(x, xc)
        return kx, x * x, kx / (mp.mpf("0.01") + (x - mp.mpf("0.3")) ** 2)
    return f


def _component_spec(j):
    def factory(mp):
        f = _mixed_factory(mp)
        return lambda x, xc: f(x, xc)[j]
    return IntegralSpec(f"component_{j}", (), (0, 1), factory, singular_points=(HALF,))


def test_vector_integral_matches_its_scalar_components(ctx):
    vector = integrate(IntegralSpec("mixed", (), (0, 1), _mixed_factory,
                                    singular_points=(HALF,)), ctx)
    scalars = [integrate(_component_spec(j), ctx) for j in range(3)]
    assert len(vector.value) == len(vector.err_estimate) == 3
    for v, e, s in zip(vector.value, vector.err_estimate, scalars):
        assert abs(v - s.value) <= e + s.err_estimate
    assert vector.levels == max(s.levels for s in scalars)
    assert vector.panels == 2
    # one node set for all three: no more calls than the hardest component's
    assert vector.evaluations == max(s.evaluations for s in scalars)


def test_one_tuple_integrand_yields_one_tuples(ctx):
    def one_tuple(mp):
        k = k_of_x(mp)
        return lambda x, xc: (k(x, xc),)
    r = integrate(dataclasses.replace(plain_spec(), factory=one_tuple), ctx)
    scalar = integrate(plain_spec(), ctx)
    assert isinstance(r.value, tuple) and isinstance(r.err_estimate, tuple)
    assert (r.value, r.err_estimate) == ((scalar.value,), (scalar.err_estimate,))
    assert (r.levels, r.evaluations) == (scalar.levels, scalar.evaluations)


def test_nan_in_one_component_is_an_integrand_failure(ctx):
    spec = IntegralSpec("nan_component", (), (0, 1),
                        lambda mp: (lambda x, xc: (mp.one, x if x < 0.7 else mp.nan)))
    with pytest.raises(IntegrandFailureError, match="returned nan"):
        integrate(spec, ctx)


def test_evaluations_counts_integrand_calls(ctx):
    count = [0]

    def counting(mp):
        k = k_of_x(mp)
        def f(x, xc):
            count[0] += 1
            return k(x, xc)
        return f
    r = integrate(dataclasses.replace(plain_spec(), factory=counting), ctx)
    assert r.evaluations == count[0] == 602


def test_k_singular_point_is_an_integrand_failure(ctx):
    # without the split, the centre node is x = 1/2, where K(1) is infinite:
    # K must refuse at once rather than run the AGM to its iteration cap
    with pytest.raises(IntegrandFailureError, match="singularity"):
        integrate(plain_spec(singular=()), ctx)


def test_spec_validation(ctx):
    with pytest.raises(DomainError):
        integrate(plain_spec(0, 1, (1.5,)), ctx)  # singular point outside
    with pytest.raises(DomainError):
        integrate(plain_spec(1, 1, ()), ctx)  # degenerate interval
    with pytest.raises(DomainError):
        spec = IntegralSpec("inf_lo", (), (INF, 1), lambda mp: (lambda x, xc: mp.one))
        integrate(spec, ctx)
