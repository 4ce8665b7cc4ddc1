import random

import pytest

from multiell import (DomainError, PrecisionContext, Residual, apply_annihilator_fd,
                      integrate, laplace_residual, laplace_residual_of,
                      ode_annihilator_residual,
                      ode_annihilator_residual_closed_form)
from multiell.fd import richardson_derivative
from multiell.kernels import axial_t_kernel, generating_weight, weighted_kernel_spec
from multiell.quadrature import Gap


def test_weight_derivatives_match_finite_differences(ctx):
    # the closed-form a-derivatives of the algebraic weight are validated
    # against finite differences at 10 seeded random (x, a) points
    work = ctx.boosted(20)
    mp = work.mp
    rng = random.Random(1729)
    h = mp.mpf(10) ** (-(ctx.digits // 5))
    for _ in range(10):
        x = mp.mpf(rng.uniform(0.05, 0.95))
        a = mp.mpf(rng.uniform(0.05, 0.9))
        for order in (1, 2, 3):
            direct = generating_weight(mp, a, order)(1 - x)[order]
            fd = richardson_derivative(
                lambda t: generating_weight(mp, t, order - 1)(1 - x)[order - 1], a, 1, h)
            assert abs(direct - fd) <= mp.mpf(10) ** -30 * max(1, abs(direct))


def test_ode_residual_passes_midpoint(ctx):
    res = ode_annihilator_residual(ctx.mp.mpf("0.5"), ctx)
    assert res.passed
    assert res.residual <= res.tolerance


def test_ode_residual_negative_control(ctx):
    mp = ctx.mp
    clean = ode_annihilator_residual(mp.mpf("0.5"), ctx)
    bad = ode_annihilator_residual(mp.mpf("0.5"), ctx, corrupted=True)
    floor = max(clean.residual, mp.mpf(10) ** (-2 * ctx.digits))
    assert bad.residual / floor >= 10 ** 6
    assert not bad.passed


@pytest.mark.parametrize("a_str", ["0.1", "0.05", "0.01"])
def test_ode_residual_small_parameter_trend(ctx, a_str):
    res = ode_annihilator_residual(ctx.mp.mpf(a_str), ctx)
    assert res.passed


def test_ode_residual_is_one_integral(ctx, monkeypatch):
    # the weight and its three a-derivatives share one K value per node
    import multiell.diffop as diffop
    results = []

    def recording(spec, ctx, **kw):
        results.append(integrate(spec, ctx, **kw))
        return results[-1]
    monkeypatch.setattr(diffop, "integrate", recording)
    assert ode_annihilator_residual(ctx.mp.mpf("0.5"), ctx).passed
    assert [(len(r.value), r.evaluations) for r in results] == [(4, 602)]


def test_selftest_ode_checks_share_one_integral(monkeypatch):
    # the grid check and its negative control integrate all nine a at once
    import multiell.diffop as diffop
    from multiell import selftest
    results = []

    def recording(spec, ctx, **kw):
        results.append(integrate(spec, ctx, **kw))
        return results[-1]
    monkeypatch.setattr(diffop, "integrate", recording)
    run = PrecisionContext(30)
    assert selftest._ode_grid_check(run)[0]
    assert selftest._ode_control_check(run)[0]
    assert [len(r.value) for r in results] == [4 * len(selftest.ODE_GRID)]


def test_ode_residual_domain(ctx):
    with pytest.raises(DomainError):
        ode_annihilator_residual(0, ctx)
    with pytest.raises(DomainError):
        ode_annihilator_residual(1.2, ctx)


@pytest.mark.parametrize("a_str", ["0.3", "0.7"])
def test_closed_form_solves_the_equation(ctx, a_str):
    res = ode_annihilator_residual_closed_form(ctx.mp.mpf(a_str), ctx)
    assert res.passed
    assert res.residual <= res.tolerance


def test_operator_on_constant_is_zeroth_term(ctx):
    # FD stencils of a constant vanish exactly, leaving |a * 1|
    mp = ctx.mp
    a = mp.mpf("0.37")
    residual, scale = apply_annihilator_fd(lambda t: 1, a, ctx)
    assert residual == a
    assert scale == a


def test_laplace_residual_passes(ctx):
    mp = ctx.mp
    res = laplace_residual(mp.pi / 4, 1, 1, ctx)
    assert res.passed
    assert res.residual <= res.tolerance


@pytest.mark.parametrize("theta_div, b, c", [(4, "1", "1"), (6, "0.5", "2"), (3, "2", "0.5")])
def test_laplace_residual_differentiates_the_t_form(ctx, theta_div, b, c):
    # the residual at theta is the t-form integrand's at t = tan theta
    mp = ctx.boosted(20).mp
    theta = mp.pi / theta_div
    t = mp.tan(theta)
    residual, scale, tol, ok = laplace_residual_of(
        lambda bb, cc: axial_t_kernel(mp, bb, cc)(t, Gap(None, None)), mp.mpf(b), mp.mpf(c), ctx)
    res = laplace_residual(theta, mp.mpf(b), mp.mpf(c), ctx)
    assert ok and res.passed
    assert (res.residual, res.scale) == (ctx.reduce(residual), ctx.reduce(scale))


def test_laplace_negative_control(ctx):
    mp = ctx.mp
    clean = laplace_residual(mp.pi / 4, 1, 1, ctx)
    bad = laplace_residual(mp.pi / 4, 1, 1, ctx, corrupted=True)
    floor = max(clean.residual, mp.mpf(10) ** (-2 * ctx.digits))
    assert bad.residual / floor >= 10 ** 6
    assert not bad.passed


def test_laplace_harmonic_reference(ctx):
    # axially symmetric harmonic reference (c radial, b axial): the stencil
    # must annihilate it to FD-truncation level for any axial offset
    mp = ctx.boosted(20).mp
    for offset in (2, 3):
        def harmonic(b, c):
            return 1 / mp.sqrt(c * c + (b - offset) ** 2)
        residual, scale, tol, ok = laplace_residual_of(harmonic, 1, 1, ctx)
        assert ok, f"offset {offset}: residual {residual} vs tol {tol}"


def test_laplace_domain_checks(ctx):
    mp = ctx.mp
    with pytest.raises(DomainError):
        laplace_residual(mp.pi / 4, 0, 1, ctx)
    with pytest.raises(DomainError):
        laplace_residual(2 * mp.pi, 1, 1, ctx)
    with pytest.raises(DomainError):
        # positive but inside the stencil footprint
        laplace_residual(mp.pi / 4, mp.mpf(10) ** -12, 1, ctx)


@pytest.mark.parametrize("a_str", ["0.2", "0.5", "0.8"])
def test_differentiation_under_the_integral(ctx, a_str):
    # quadrature of the analytic kernel derivative against a central FD of
    # the parametric integral itself
    mp = ctx.mp
    a = mp.mpf(a_str)

    direct = integrate(weighted_kernel_spec((a,), 1), ctx).value[1]
    h = mp.mpf(10) ** (-(ctx.digits // 5))
    steps = (-2, -1, 1, 2)
    samples = dict(zip(steps, integrate(
        weighted_kernel_spec(tuple(a + k * h for k in steps)), ctx).value))
    fd = (samples[-2] - 8 * samples[-1] + 8 * samples[1] - samples[2]) / (12 * h)
    assert abs(fd - direct) <= mp.mpf(10) ** (-(ctx.digits // 3)) * abs(direct)


def _counting(monkeypatch, module, name):
    """Replace module.name by a wrapper and return the list of its calls' arguments."""
    calls = []
    original = getattr(module, name)

    def counted(*args):
        calls.append(args)
        return original(*args)
    monkeypatch.setattr(module, name, counted)
    return calls


def test_closed_form_samples_each_stencil_point_once(ctx, monkeypatch):
    # f(a) and the order 1-3 stencils at h and h/2 share a, a +- h/2, a +- h, a +- 2h
    import multiell.diffop as diffop
    calls = _counting(monkeypatch, diffop, "generating_integral_closed_form")
    assert ode_annihilator_residual_closed_form(ctx.mp.mpf("0.4"), ctx).passed
    assert len(calls) == 7
    assert len({a for a, _ in calls}) == 7


def test_laplace_residual_samples_each_stencil_point_once(ctx, monkeypatch):
    # 7 points on the b line and 7 on the c line, (b, c) shared
    from multiell import kernels
    calls = _counting(monkeypatch, kernels, "axial_t_kernel")
    assert laplace_residual(ctx.mp.pi / 4, 1, 1, ctx).passed
    assert len(calls) == 13
    assert len({(b, c) for _, b, c in calls}) == 13


def test_every_route_returns_one_residual_type(ctx):
    mp = ctx.mp
    work = ctx.boosted(20).mp
    results = (
        ode_annihilator_residual(mp.mpf("0.5"), ctx),
        ode_annihilator_residual_closed_form(mp.mpf("0.5"), ctx),
        laplace_residual(mp.pi / 4, 1, 1, ctx),
        laplace_residual_of(lambda b, c: 1 / work.sqrt(c * c + (b - 3) ** 2), 1, 1, ctx),
    )
    for res in results:
        assert type(res) is Residual
        residual, scale, tolerance, passed = res
        assert passed is True and residual <= tolerance <= scale
        # rounded to the caller's context
        assert all(type(v) is mp.mpf for v in (residual, scale, tolerance))


def _failing_residual(mp, bad):
    return Residual(mp.mpf(2 if bad else 0), mp.one, mp.one, not bad)


def test_ode_grid_verdict_names_the_failing_point(monkeypatch):
    from multiell import selftest
    run = PrecisionContext(30)
    mp = run.mp
    grid = tuple((mp.mpf(a), None) for a in ("0.1", "0.3", "0.5"))
    monkeypatch.setattr(selftest, "_ode_grid", lambda ctx: grid)
    monkeypatch.setattr(selftest, "ode_residual_of",
                        lambda a, derivs, ctx: _failing_residual(mp, a > mp.mpf("0.2")))
    assert selftest._ode_grid_check(run) == (False, "residual 2.0 at a=0.3 exceeds 1.0")


def test_laplace_grid_verdict_names_the_failing_point(monkeypatch):
    from multiell import selftest
    run = PrecisionContext(30)
    mp = run.mp
    monkeypatch.setattr(selftest, "laplace_residual",
                        lambda theta, b, c, ctx: _failing_residual(mp, b == 1 and c == 2))
    assert selftest._laplace_grid_check(run) == (
        False, "residual 2.0 at (theta=pi/6, b=1, c=2) exceeds 1.0")
