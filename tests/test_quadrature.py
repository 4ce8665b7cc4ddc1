import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath.libmp import mpf_abs, mpf_cmp, mpf_sub

from multiell import (DomainError, INF, IntegralSpec, IntegrandFailureError,
                      NonConvergenceError, PrecisionContext, integrate, rhs_constant, verify)
from multiell import quadrature
from multiell import identities
from multiell.identities import _validated, get_identity
from multiell.quadrature import GUARD, MAX_LEVEL
from multiell.kernels import (axial_kernel, axial_t_spec, k_of_x,
                              re_k_semi_infinite_kernel, special_case_kernel,
                              weighted_kernel_spec)
from printed_integrands import catalog_point, printed_spec

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


def _complex_parts(rid, ctx):
    """The printed integral of row rid as its real and imaginary parts' two integrals."""
    return (integrate(printed_spec(rid, part), ctx) for part in ("real", "imag"))


def test_complex_kernel_r3_value(ctx):
    # the printed I4 integrand, whose weight is complex
    re, im = _complex_parts("I4", ctx)
    assert abs(re.value - rhs_constant("I4", ctx)) <= ctx.pass_tol
    assert abs(im.value) <= 10 * im.err_estimate


def test_complex_kernel_r7_value(ctx):
    re, im = _complex_parts("I5", ctx)
    assert abs(re.value - rhs_constant("I5", ctx)) <= ctx.pass_tol
    assert abs(im.value) <= 10 * im.err_estimate


def test_degenerate_complex_part_reduces_to_real_kernel(ctx):
    # zeroing the imaginary coefficient in a complex-kernel form must
    # reproduce the real r=4 integrand (the printed I3) exactly
    def zeroed_factory(part):
        def factory(mp):
            k = k_of_x(mp)
            s2 = mp.sqrt(2)
            def f(x, xc):
                value = k(x, xc) / mp.sqrt(mp.mpc(mp.mpf(9) / 8 + (1 - 2 * x) / s2, 0))
                return getattr(value, part)
            return f
        return IntegralSpec("r4_zero_imag", (), (0, 1), factory, singular_points=(HALF,))
    re, im = (integrate(zeroed_factory(part), ctx) for part in ("real", "imag"))
    rr = integrate(printed_spec("I3"), ctx)
    assert im.value == 0
    assert abs(re.value - rr.value) <= ctx.quad_target


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
                  singular_points=(1,)), 476, 5),
    # I6's form: a tanh-sinh panel (0, c) and an exp-sinh panel (c, inf)
    (axial_t_spec(1, 1), 642, 5),
    (axial_t_spec(0, 1), 476, 5),
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



@pytest.mark.parametrize("digits", [30, 50, 300])
@pytest.mark.parametrize("lo, hi", [(0, HALF), (HALF, 1), (0, "1e10"),
                                    (1, INF), (HALF, INF), ("1e10", INF)])
def test_node_gaps_are_exact_and_name_the_nearer_end(digits, lo, hi):
    # every point of levels 0..3 as the panel passes it: xc.end is x's
    # nearer panel end; on tanh-sinh, xc's gap is rad s as mpmath's
    # operators form it; and x = end - gap rounded once, so the exact
    # end - x lies within half an ulp of x of the gap
    mp = PrecisionContext(digits).boosted(GUARD).mp
    lo, hi = mp.convert(lo), mp.convert(hi)
    kind = "exp-sinh" if mp.isinf(hi) else "tanh-sinh"
    _, scale_of, points = quadrature._TRANSFORMS[kind]
    rad = scale_of(lo, hi)
    cutoff = mp.mpf(10) ** (-2 * (digits + 10))
    for level in range(4):
        for node in quadrature._level_nodes(mp, kind, level, cutoff)[0]:
            for _, _, x, xc in points(node, lo, hi, rad):
                exact = mpf_sub(xc.end, x._mpf_)  # prec 0: unrounded
                if kind == "tanh-sinh":
                    assert xc.end in (lo._mpf_, hi._mpf_)
                    other = lo if xc.end == hi._mpf_ else hi
                    assert mpf_cmp(mpf_abs(exact), mpf_abs(mpf_sub(other._mpf_, x._mpf_))) <= 0
                    gap = rad * mp.make_mpf(node[0])
                    assert mp.convert(xc) == (gap if xc.end == hi._mpf_ else -gap)
                else:
                    assert xc.end == lo._mpf_
                _, _, exp, bc = x._mpf_
                half_ulp = (0, 1, exp + bc - mp.prec - 1, 1)
                assert mpf_cmp(mpf_abs(mpf_sub(exact, xc._mpf_)), half_ulp) <= 0, (x, level)

def _catalog_specs(ctx):
    mp = ctx.mp
    yield weighted_kernel_spec((mp.mpf("0.5"),), 3)
    yield plain_spec()
    # the integrals of I2, I3, I4, I5 and I10 at the catalog's own points
    # (I2 and I10: the weight and its a-derivative at a*; I4 and I5: the
    # weight's real and imaginary parts at an imaginary a), and the printed
    # I4 integrand's real and imaginary parts
    for rid in ("I2", "I3", "I4", "I5", "I10"):
        a, order, _ = catalog_point(rid, ctx)
        yield weighted_kernel_spec((a,), order)
    yield printed_spec("I4", "real")
    yield printed_spec("I4", "imag")
    yield IntegralSpec("special_case_kernel", (), (0, 1),
                       lambda emp: special_case_kernel(emp), singular_points=(HALF,))
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
    # integrate's value is unrounded, so each truth is taken 40 digits higher
    mp = ctx.boosted(40).mp
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
        assert abs(mp.convert(r.value) - truth) <= 10 * r.err_estimate, spec.integrand_id
        assert r.err_estimate >= 0


def test_nonconvergence_at_low_level_cap(ctx):
    with pytest.raises(NonConvergenceError):
        integrate(plain_spec(), ctx, max_level=2)


@pytest.mark.parametrize("digits", [30, 100])
@pytest.mark.parametrize("kind", ["tanh-sinh", "exp-sinh"])
@pytest.mark.parametrize("value", [0, 1, 10 ** 30])
def test_an_estimate_never_falls_below_the_noise_floor(digits, kind, value):
    # past level 5 these panels' level changes vanish, or fall below
    # negligible max(1, |value|), so the last change alone would report
    # less than the node loop's dropped terms and the integrand's rounding
    ctx = PrecisionContext(digits)
    mp = ctx.boosted(GUARD).mp
    negligible = mp.mpf(10) ** -(digits + 10)
    hi = mp.inf if kind == "exp-sinh" else mp.one
    f = lambda x, xc: mp.mpf(value) / ((1 + x) ** 2 if kind == "exp-sinh" else 1)
    for min_level in (2, 6):
        values, estimates, _, _, _ = quadrature._panel(
            f, mp, kind, mp.zero, hi, negligible ** 2, negligible,
            mp.convert(ctx.quad_target), MAX_LEVEL, min_level)
        assert estimates[0] >= negligible * max(1, abs(values[0]))


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


def _exact_fixed(values, mp):
    """The mpf values as one Fixed, exactly: each signed mantissa shifted to
    the smallest exponent, which is at most -fraction_bits(mp)."""
    parts = [v._mpf_ for v in values]
    exp = min([-quadrature.fraction_bits(mp)] + [e for _, m, e, _ in parts if m])
    return quadrature.Fixed(tuple((-m if s else m) << e - exp for s, m, e, _ in parts), exp)


def _as_fixed(factory):
    """factory's integrand, which returns a tuple of mpf, returning Fixed,
    its exponent changing from call to call."""
    def fixed_factory(mp):
        f = factory(mp)
        bits = [quadrature.fraction_bits(mp) + extra for extra in (0, 7, 31)]
        calls = [0]

        def g(x, xc):
            calls[0] += 1
            s = bits[calls[0] % 3]
            return quadrature.Fixed(tuple(v.to_fixed(s) for v in f(x, xc)), -s)
        return g
    return fixed_factory


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
    vector = integrate(IntegralSpec("mixed", (), (0, 1), _as_fixed(_mixed_factory),
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
    # a one-component Fixed holding each mpf exactly sums bit-identically
    def one_tuple(mp):
        k = k_of_x(mp)
        return lambda x, xc: _exact_fixed((k(x, xc),), mp)
    r = integrate(dataclasses.replace(plain_spec(), factory=one_tuple), ctx)
    scalar = integrate(plain_spec(), ctx)
    assert isinstance(r.value, tuple) and isinstance(r.err_estimate, tuple)
    assert (r.value, r.err_estimate) == ((scalar.value,), (scalar.err_estimate,))
    assert (r.levels, r.evaluations) == (scalar.levels, scalar.evaluations)


def test_nan_in_one_component_is_an_integrand_failure(ctx):
    spec = IntegralSpec("nan_component", (), (0, 1),
                        lambda mp: (lambda x, xc: x if x < 0.7 else mp.nan))
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


@pytest.mark.parametrize("max_level", [-1, True, 2.5, "3"])
def test_max_level_must_be_a_nonnegative_int(ctx, max_level):
    with pytest.raises(DomainError, match="max_level"):
        integrate(plain_spec(), ctx, max_level=max_level)
    with pytest.raises(DomainError, match="max_level"):
        verify("I8", {}, ctx, max_level=max_level)


@pytest.mark.parametrize("min_level, max_level", [
    (-1, MAX_LEVEL), (True, MAX_LEVEL), (2.5, MAX_LEVEL), ("3", MAX_LEVEL), (20, MAX_LEVEL), (3, 2)])
def test_min_level_must_be_a_nonnegative_int_at_most_max_level(ctx, min_level, max_level):
    with pytest.raises(DomainError, match="min_level"):
        integrate(plain_spec(), ctx, min_level=min_level, max_level=max_level)


def test_inf_in_second_component_is_an_integrand_failure(ctx):
    spec = IntegralSpec("inf_component", (), (0, 1),
                        lambda mp: (lambda x, xc: x if x < 0.7 else mp.inf))
    with pytest.raises(IntegrandFailureError, match=r"returned \+inf"):
        integrate(spec, ctx)


@pytest.mark.parametrize("value, message", [
    (lambda mp, x: mp.mpc(1, x), r"returned mpc\(real='1\.0'"),
    (lambda mp, x: (x, x), r"returned \(mpf\("),
    (lambda mp, x: 2, "returned 2 "),
], ids=["mpc", "tuple", "int"])
def test_a_value_neither_mpf_nor_fixed_is_an_integrand_failure(ctx, value, message):
    spec = IntegralSpec("not_mpf", (), (0, 1), lambda mp: (lambda x, xc: value(mp, x)))
    with pytest.raises(IntegrandFailureError, match=message + r".*not an mpf or a Fixed"):
        integrate(spec, ctx)


def test_complex_values_stay_complex(ctx):
    # I4's imaginary terms cancel to an integer sum of exactly 0; its LHS stays mpc
    assert isinstance(verify("I4", {}, ctx).lhs_value, ctx.mp.mpc)


# Fixed-point sum oracle.  Each component is sign 10^k b(x) / (j + 1 + x),
# summed as one exact Fixed, on one panel: tanh-sinh with a smooth base
# b, tanh-sinh with an x^(-1/2) end (f near 1e40 at weights near 1e-80 at
# 30 digits, 1e110 at 1e-220 at 100), or exp-sinh, whose weights grow past
# 1e50.  The panel runs to a fixed level: no absolute target can be met
# at 10^30.
_ORACLE_PANELS = {
    "smooth": ("tanh-sinh", 1, lambda mp, x: mp.exp(x)),
    "sqrt-end": ("tanh-sinh", 1, lambda mp, x: mp.cos(x) / mp.sqrt(x)),
    "exp-sinh": ("exp-sinh", INF, lambda mp, x: 1 / (1 + x * x) ** 2),
}
_oracle_component = st.tuples(st.integers(min_value=-30, max_value=30), st.booleans())


def _oracle_integrand(mp, base, components):
    def f(x, xc):
        b = base(mp, x)
        out = []
        for j, (k, negative) in enumerate(components):
            out.append((-b if negative else b) * mp.mpf(10) ** k / (j + 1 + x))
        return tuple(out)
    return f


@pytest.mark.parametrize("digits", [30, 100])
@settings(max_examples=15, deadline=None, derandomize=True, database=None)
@given(panel=st.sampled_from(sorted(_ORACLE_PANELS)),
       components=st.lists(_oracle_component, min_size=1, max_size=4),
       level=st.integers(min_value=2, max_value=5))
def test_fixed_point_sum_against_mpf_sum(digits, panel, components, level):
    # _panel rounds each term w f once, by at most 2^-wp, so over N
    # calls a value may move by N 2^-wp; the reference sums the same terms
    # in mpf 40 digits above the engine, each weight exact from the node
    # tables and each f evaluated in that context
    kind, hi, base = _ORACLE_PANELS[panel]
    ctx = PrecisionContext(digits)
    emp = ctx.boosted(GUARD).mp
    lo, hi = emp.zero, emp.convert(hi)
    negligible = emp.mpf(10) ** -(digits + 10)
    cutoff = negligible ** 2
    f = _oracle_integrand(emp, base, components)
    calls = []

    def recording(x, xc):
        calls.append((x, xc))
        return _exact_fixed(f(x, xc), emp)
    values, _, _, n, vector = quadrature._panel(recording, emp, kind, lo, hi, cutoff, negligible,
                                                emp.zero, level, level)
    assert vector and n == len(calls)

    _, scale_of, points = quadrature._TRANSFORMS[kind]
    scale = scale_of(lo, hi)
    weights = {}
    for lev in range(level + 1):
        for node in quadrature._level_nodes(emp, kind, lev, cutoff)[0]:
            for wm, we, x, xc in points(node, lo, hi, scale):
                weights[x._mpf_, xc._mpf_] = wm, we
    mp = PrecisionContext(digits + GUARD + 40).mp
    g = _oracle_integrand(mp, base, components)
    sums = [0] * len(components)
    for x, xc in calls:
        w = mp.mpf(weights[x._mpf_, xc._mpf_])
        sums = [a + w * c for a, c in zip(sums, g(x, xc))]

    rounding = n * emp.ldexp(1, -(emp.prec + 20))
    for v, u in zip(values, sums):
        assert isinstance(v, emp.mpf)
        assert abs(v - u * scale / 2 ** level) <= (1 + abs(v)) * emp.mpf(10) ** -digits + rounding


def _mixed_sign_components(mp, x):
    # mixed magnitudes and signs: 1e30, -1e-30 and -3 scales
    return (mp.mpf(10) ** 30 * x * x, -mp.mpf(10) ** -30 / (1 + x), -3 * mp.exp(x))


def test_fixed_integrand_matches_its_mpf_form(ctx):
    # the same components, once as three mpf integrals and once as one
    # Fixed with negative mantissas and a per-call exponent: the hardest
    # component's node set, and values within the rounding of the two sums,
    # 2 units of 2^-wp per call, times scale 1/2
    def component(j):
        return lambda mp: (lambda x, xc: _mixed_sign_components(mp, x)[j])
    plain = [integrate(IntegralSpec(f"mixed_signs_{j}", (), (0, 1), component(j)), ctx)
             for j in range(3)]
    fixed = integrate(IntegralSpec("mixed_signs", (), (0, 1), _as_fixed(
        lambda mp: (lambda x, xc: _mixed_sign_components(mp, x)))), ctx)
    assert (fixed.levels, fixed.evaluations) == (max(p.levels for p in plain),
                                                 max(p.evaluations for p in plain))
    mp = ctx.mp
    wp = quadrature.fraction_bits(ctx.boosted(GUARD).mp)
    rounding = fixed.evaluations * mp.ldexp(1, -wp)
    # values are returned unrounded, at engine precision
    assert [type(v) for v in fixed.value] == [ctx.boosted(GUARD).mp.mpf] * 3
    assert fixed.value[1] < 0 and fixed.value[2] < 0
    for v, p in zip(fixed.value, (p.value for p in plain)):
        assert abs(v - p) <= rounding + (1 + abs(p)) * mp.mpf(10) ** -ctx.digits


def test_fixed_integrand_zero_division_is_an_integrand_failure(ctx):
    # floor(16 x) is 0 for x < 1/16, where the integer division fails
    def factory(mp):
        wp = quadrature.fraction_bits(mp)
        return lambda x, xc: quadrature.Fixed(((1 << 2 * wp) // (x.to_fixed(4)),), -wp)
    with pytest.raises(IntegrandFailureError, match="integrand raised"):
        integrate(IntegralSpec("fixed_division", (), (0, 1), factory), ctx)


# ------------------------------------------------------------ the point cache

@pytest.fixture
def empty_cache(monkeypatch):
    """An empty point cache, restored after the test."""
    monkeypatch.setattr(quadrature, "_point_cache", {})


ROW_POINTS = [("I1", {"a": "0.45"}), ("I1-ext", {"a": "2"}), ("I2", {}), ("I3", {}), ("I4", {}),
              ("I5", {}), ("I6", {"b": "0.7", "c": "0.9"}), ("I7", {}), ("I8", {}),
              ("I9", {"c": "0.58"}), ("I10", {}), ("I13", {"a": "0.6"})]


@pytest.mark.parametrize("digits", [30, 50, 300])
def test_cold_and_warm_points_give_bit_identical_rows(empty_cache, monkeypatch, digits):
    # every quadrature row's left side from an empty cache, in which the
    # first integral over each panel builds its points and memos, then
    # again from the full cache: value, estimate, level and evaluations of
    # each integral agree bit for bit
    results = []

    def recording(spec, ctx, **kw):
        results.append(integrate(spec, ctx, **kw))
        return results[-1]
    monkeypatch.setattr(identities, "integrate", recording)
    ctx = PrecisionContext(digits)
    rows = [(get_identity(rid), [_validated(get_identity(rid), params, ctx)])
            for rid, params in ROW_POINTS]
    for rec, points in rows:
        rec.lhs(ctx, points, MAX_LEVEL)
    cold = list(results)
    assert quadrature._point_cache
    results.clear()
    for rec, points in rows:
        rec.lhs(ctx, points, MAX_LEVEL)
    assert len(results) == len(cold) == len(ROW_POINTS)
    assert results == cold


def test_points_built_at_one_precision_never_serve_another(empty_cache):
    integrate(plain_spec(), PrecisionContext(50))
    for key, (_, tail, count) in quadrature._point_cache.items():
        quadrature._point_cache[key] = ([], tail, count)  # a 60-digit sum over these would be 0
    warm = integrate(plain_spec(), PrecisionContext(60))
    quadrature._point_cache.clear()
    cold = integrate(plain_spec(), PrecisionContext(60))
    assert (warm.value, warm.err_estimate, warm.evaluations) == \
        (cold.value, cold.err_estimate, cold.evaluations)


def test_a_pointwise_gap_never_memoises(ctx):
    mp = ctx.boosted(GUARD).mp
    x = mp.mpf("0.3")
    kernels = [k_of_x(mp), re_k_semi_infinite_kernel(mp, mp.one),
               weighted_kernel_spec((mp.mpf("0.5"),), 1).factory(mp, 1, mp.mpf("0.5"))]
    for end, gap in ((None, None), (mp.zero._mpf_, (-x)._mpf_)):
        for f in kernels:
            xc = quadrature.Gap(end, gap)
            assert f(x, xc) == f(x, xc)
            assert xc.memo is False


def test_the_point_cache_stays_within_its_cap(empty_cache):
    # I6's panels move with c, so a sweep over c builds new points at each
    # c; the cache evicts its least recently used levels to stay in its cap
    ctx = PrecisionContext(50)
    seen = {}
    c = 0
    while sum(seen.values()) <= quadrature.POINT_CAP:
        c += 1
        integrate(axial_t_spec(ctx.mp.mpf("0.5"), ctx.mp.mpf(c) / 16), ctx)
        seen.update((key, count) for key, (_, _, count) in quadrature._point_cache.items())
        cached = sum(count for _, _, count in quadrature._point_cache.values())
        assert cached <= quadrature.POINT_CAP
    assert len(quadrature._point_cache) < len(seen)
