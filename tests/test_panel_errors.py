"""Each integral's unrounded value against closed forms 40 digits higher.

integrate returns its panel sums and estimates at engine precision,
unrounded, so its value shows the quadrature's own error.  A panel stops
at the first level whose change is within target, or whose extrapolated
error is within both target and 10^-(digits+1) of its largest value, so
the error must lie within the estimate and within 10^-(digits+1)
relative.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multiell import INF, IntegralSpec, PrecisionContext, integrate, kernels
from multiell.identities import _inverted, get_identity
from printed_integrands import catalog_point


def _rhs(rid, **params):
    """Row rid's closed form at params, as a case's truth: ref -> value."""
    return lambda ref: get_identity(rid).rhs(ref, {k: ref.mp.mpf(v) for k, v in params.items()})


def _weighted(point, truth):
    """A weighted K-kernel integral: point(ref) is its (a, order, coefficients)."""
    def case(ref):
        a, order, coefficients = point(ref)
        return kernels.weighted_kernel_spec((a,), order), [(coefficients, truth(ref))]
    return case


def _i1(a):
    return _weighted(lambda ref: (ref.mp.mpf(a), 0, (1,)), _rhs("I1", a=a))


def _row(rid):
    return _weighted(lambda ref: catalog_point(rid, ref), _rhs(rid))


def _scalar(spec_of, truth):
    return lambda ref: (spec_of(ref.mp), [((1,), truth(ref))])


def _unit(factory, rid):
    return _scalar(lambda mp: IntegralSpec(factory.__name__, (), (0, 1), factory,
                                           singular_points=(0.5,)), _rhs(rid))


def _i6(b, c):
    return _scalar(lambda mp: kernels.axial_t_spec(mp.mpf(b), mp.mpf(c)), _rhs("I6", b=b, c=c))


def _i9(c):
    return _scalar(lambda mp: kernels.semi_infinite_spec(kernels.re_k_semi_infinite_kernel,
                                                         mp.mpf(c)), _rhs("I9", c=c))


def _chain(form, c):
    # the b = 0 axial integral in its theta and x substitution forms, whose
    # value is I9's
    def spec_of(mp):
        if form == "theta":
            return IntegralSpec("axial_kernel_b0", (0, mp.mpf(c)), (0, lambda emp: emp.pi / 2),
                                kernels.axial_kernel,
                                singular_points=(lambda emp: emp.atan(emp.mpf(c)),))
        return IntegralSpec("axial_x_form", (mp.mpf(c),), (0, INF),
                            kernels.axial_x_form_kernel, singular_points=(1,))
    return _scalar(spec_of, _rhs("I9", c=c))


def _i1_ext(a):
    def point(ref):
        inverse, coefficients = _inverted(ref, {"a": ref.mp.mpf(a)})
        return inverse, 0, coefficients
    return _weighted(point, _rhs("I1-ext", a=a))


def _ode(a):
    # the ODE residual's integral: the weight's a-derivatives 0..3 times K,
    # each against the derivative of mpmath's K(m)^2 closed form
    def case(ref):
        mp = ref.mp
        closed = lambda t: mp.ellipk((1 - mp.sqrt(1 + t * t)) / 2) ** 2
        truths = [mp.diff(closed, mp.mpf(a), k) for k in range(4)]
        unit = lambda k: tuple(int(j == k) for j in range(4))
        return (kernels.weighted_kernel_spec((mp.mpf(a),), 3),
                [(unit(k), t) for k, t in enumerate(truths)])
    return case


# every quadrature row of test_identities.DIGITS_AXIS, the edges benchmark's
# points, the semi-infinite rows at their measured domain ends and at c = 2
# and 1000, where I6 at b = 0 integrates I9's form, and the ODE
# residual's integral, whose panels an extrapolation without its 2 D1 term
# stops a level too soon at a = 0.05 and 0.7, and the substitution chain's
# theta and x forms at the benchmark's anchors
CASES = {
    "I1-0.5": _i1("0.5"), "I1-1": _i1("1"), "I1-0": _i1("0"), "I1-ext-2": _i1_ext("2"),
    "I2": _row("I2"), "I3": _row("I3"), "I4": _row("I4"), "I5": _row("I5"), "I10": _row("I10"),
    "I7": _unit(kernels.special_case_kernel, "I7"), "I8": _unit(kernels.k_of_x, "I8"),
    "I13-0.95": _i1("0.95"), "I13-1e-200": _i1("1e-200"),
    "I9-1": _i9("1"), "I9-1e-10": _i9("1e-10"), "I9-1e10": _i9("1e10"),
    "I9-2": _i9("2"), "I9-1000": _i9("1000"),
    **{f"I6-{b}-{c}": _i6(b, c) for b, c in [
        ("1", "1"), ("0", "1"), ("0", "1e-8"), ("1e-8", "0"), ("0", "10"), ("1000", "1000"),
        ("0.001", "1"), ("0", "0"), ("0", "2"), ("1", "0"), ("0.01", "1"), ("0.01", "2"),
        ("0.01", "3"), ("1e10", "1e10")]},
    **{f"ode-{a}": _ode(a) for a in ("0.05", "0.2", "0.7")},
    **{f"chain-{form}-{c}": _chain(form, c) for form in ("theta", "x") for c in ("0.85", "1.95")},
}
# values near 1e-10, which the absolute quad_target 10^-(digits-10) holds
# to only about 10 relative digits at 30 digits (ROADMAP item 3): relative
# to the value only as far as quad_target reaches
BELOW_TARGET_REACH = {"I9-1e10", "I6-1e10-1e10"}


def _check(case, digits, absolute=False):
    ctx, ref = PrecisionContext(digits), PrecisionContext(digits + 40)
    mp = ref.mp
    spec, checks = case(ref)
    result = integrate(spec, ctx)
    values, estimates = ([mp.convert(v) for v in (r if isinstance(r, tuple) else (r,))]
                         for r in (result.value, result.err_estimate))
    largest = max(abs(truth) for _, truth in checks)
    bound = mp.mpf(10) ** -(digits + 1) * largest
    if absolute:
        bound = max(bound, mp.convert(ctx.quad_target))
    for coefficients, truth in checks:
        error = abs(mp.fdot(coefficients, values) - truth)
        assert error <= bound
        assert error <= mp.fdot(map(abs, coefficients), estimates)


@pytest.mark.parametrize("digits", [30, 50, 100])
@pytest.mark.parametrize("name", CASES)
def test_unrounded_error_is_within_relative_floor_and_estimate(name, digits):
    _check(CASES[name], digits, absolute=name in BELOW_TARGET_REACH)


_SWEEP = st.one_of(
    st.builds(_i1, st.decimals(0, 1, places=3).map(str)),
    st.builds(_i6, *[st.sampled_from(["0", "0.01", "0.3", "1", "7", "100"])] * 2),
    st.builds(_i9, st.sampled_from(["1e-5", "0.01", "0.6", "3", "1000"])),
    st.builds(_ode, st.decimals("0.01", "0.95", places=2).map(str)))


@settings(max_examples=12, deadline=None, derandomize=True, database=None)
@given(digits=st.integers(30, 150), case=_SWEEP)
def test_sweep_error_is_within_relative_floor_and_estimate(digits, case):
    _check(case, digits)
