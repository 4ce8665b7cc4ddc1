"""Numerical certification of the annihilating differential operators.

Two routes, deliberately asymmetric:

* The third-order operator in the tunable parameter,
  a^2(1+a^2) d^3/da^3 + 3a(1+2a^2) d^2/da^2 + (1+7a^2) d/da + a,
  is applied to the weighted K-kernel integral by differentiating the
  algebraic weight analytically in a and quadrating the weight and its
  three derivatives as one four-component integral, which shares each K
  value -- exact derivatives, quadrature-limited accuracy.  The same
  operator is applied to the closed form by finite differences (cheap
  pointwise evaluations, FD-limited accuracy).

* The cylindrical Laplacian d^2/db^2 + d^2/dc^2 + (1/c) d/dc is applied
  to the t-form axial integrand at fixed t by finite differences; its
  analytic partials would be error-prone to derive by hand.

Every route returns one ``Residual``: the residual, the magnitude scale
of the largest operator term, the tolerance 10^-(digits/k) * scale (k = 2
for quadrature, 3 for finite differences) and the verdict residual <=
tolerance.  Finite-difference stencils sample each distinct point once.
"""

from __future__ import annotations

from functools import cache
from typing import NamedTuple

from . import kernels
from .elliptic import generating_integral_closed_form
from .errors import DomainError
from .fd import richardson_derivative
from .precision import PrecisionContext, _real
from .quadrature import GUARD, Gap, integrate

_FD_BOOST = 20


class Residual(NamedTuple):
    """An operator residual, the scale it is measured against, and its verdict."""

    residual: object
    scale: object
    tolerance: object
    passed: bool


def _verdict(mp, residual, scale, ctx: PrecisionContext, k: int) -> Residual:
    """Residual against tolerance 10^-(digits//k) * scale in mp, each rounded once to ctx."""
    tol = mp.mpf(10) ** (-(ctx.digits // k)) * scale
    return Residual(ctx.reduce(residual), ctx.reduce(scale), ctx.reduce(tol), residual <= tol)


def _ode_combine(mp, a, derivs, corrupted):
    terms = (
        a * a * (1 + a * a) * derivs[3],
        3 * a * (1 + 2 * a * a) * derivs[2],
        (1 + 7 * a * a) * derivs[1],
        (2 if corrupted else 1) * a * derivs[0],
    )
    residual = abs(terms[0] + terms[1] + terms[2] + terms[3])
    scale = max(abs(t) for t in terms)
    return residual, scale


def _ode_point(a, ctx: PrecisionContext, name: str):
    """a in ctx's precision, checked to lie in the operator checks' domain (0, 1)."""
    a = _real(ctx.mp, a, name)
    if not 0 < a < 1:
        raise DomainError(f"{name} requires a in (0, 1), got {a}")
    return a


def weighted_derivatives(a_values, ctx: PrecisionContext):
    """The weighted K-kernel integral and its first three a-derivatives at each a.

    One vector quadrature of the analytically differentiated weight over
    all of a_values, sharing each K value; returns the four values per a,
    in the order of a_values, unrounded, as integrate returns them.
    """
    values = integrate(kernels.weighted_kernel_spec(a_values, 3), ctx).value
    return [values[4 * i:4 * i + 4] for i in range(len(a_values))]


def ode_residual_of(a, derivs, ctx: PrecisionContext, *, corrupted: bool = False) -> Residual:
    """The third-order operator's residual at a, from the integral's four derivatives.

    The terms are summed at integrate's precision, ctx.boosted(GUARD).  The
    tolerance is quadrature-limited, 10^(-digits/2) relative to scale.
    With ``corrupted`` the zeroth-order coefficient a is replaced by 2a.
    """
    mp = ctx.boosted(GUARD).mp
    residual, scale = _ode_combine(mp, mp.convert(a), derivs, corrupted)
    return _verdict(mp, residual, scale, ctx, 2)


def ode_annihilator_residual(a, ctx: PrecisionContext, *, corrupted: bool = False) -> Residual:
    """Apply the third-order operator to the weighted K-kernel integral.

    The integral and its first three a-derivatives come from one vector
    quadrature of the analytically differentiated weight.  With
    ``corrupted`` the zeroth-order coefficient a is replaced by 2a
    (negative control: the residual must then blow up by many orders of
    magnitude).
    """
    a = _ode_point(a, ctx, "ode_annihilator_residual")
    derivs, = weighted_derivatives((a,), ctx)
    return ode_residual_of(a, derivs, ctx, corrupted=corrupted)


def apply_annihilator_fd(f, a, ctx: PrecisionContext):
    """(residual, scale) of the third-order operator applied to f by FD.

    f maps an mpf (at ctx precision boosted for FD) to a value; derivatives
    use 5-point central stencils at h = 10^(-digits/5) with Richardson
    extrapolation over two step sizes, which share 7 distinct points.
    """
    work = ctx.boosted(_FD_BOOST)
    mp = work.mp
    a = _real(mp, a, "apply_annihilator_fd")
    h = mp.mpf(10) ** (-(ctx.digits // 5))
    f = cache(f)
    derivs = [mp.convert(f(a))]
    for order in (1, 2, 3):
        derivs.append(richardson_derivative(f, a, order, h))
    return _ode_combine(mp, a, derivs, False)


def ode_annihilator_residual_closed_form(a, ctx: PrecisionContext) -> Residual:
    """Apply the third-order operator to the squared-K closed form by FD.

    Certifies that the closed form solves the homogeneous equation; the
    tolerance is FD-truncation-limited, 10^(-digits/3) relative to scale.
    """
    a = _ode_point(a, ctx, "ode_annihilator_residual_closed_form")
    work = ctx.boosted(_FD_BOOST)
    residual, scale = apply_annihilator_fd(
        lambda t: generating_integral_closed_form(t, work), a, ctx)
    return _verdict(work.mp, residual, scale, ctx, 3)


def laplace_residual_of(func, b, c, ctx: PrecisionContext, *, corrupted: bool = False) -> Residual:
    """Cylindrical-Laplacian residual of func(b, c) by finite differences.

    func must be smooth near (b, c) and accept mpf arguments at boosted
    precision; the three stencils share 13 distinct points.  With
    ``corrupted`` the (1/c) d/dc term is dropped.  The tolerance is
    FD-truncation-limited, 10^(-digits/3) relative to scale.
    """
    work = ctx.boosted(_FD_BOOST)
    mp = work.mp
    b, c = (_real(mp, v, "laplace_residual_of") for v in (b, c))
    h = mp.mpf(10) ** (-(ctx.digits // 5))
    if not (b - 2 * h > 0 and c - 2 * h > 0):
        raise DomainError("stencil point leaves valid region")
    func = cache(func)
    f_bb = richardson_derivative(lambda t: func(t, c), b, 2, h)
    f_cc = richardson_derivative(lambda t: func(b, t), c, 2, h)
    f_c = richardson_derivative(lambda t: func(b, t), c, 1, h)
    terms = (f_bb, f_cc) if corrupted else (f_bb, f_cc, f_c / c)
    residual = abs(sum(terms))
    scale = max(abs(f_bb), abs(f_cc), abs(f_c / c))
    return _verdict(mp, residual, scale, ctx, 3)


def laplace_residual(theta, b, c, ctx: PrecisionContext, *,
                     corrupted: bool = False) -> Residual:
    """Laplacian residual of the axial integrand at fixed t = tan theta.

    The integrand is kernels.axial_t_kernel's; its Jacobian to the theta
    form, 1 + t^2, is constant in (b, c).  Requires b, c > 0 and theta in
    (0, pi/2) with the inner parameter of K strictly inside (0, 1) at
    every stencil point.
    """
    work = ctx.boosted(_FD_BOOST)
    mp = work.mp
    theta, b, c = (_real(mp, v, "laplace_residual") for v in (theta, b, c))
    if not 0 < theta < mp.pi / 2:
        raise DomainError(f"theta must lie in (0, pi/2), got {theta}")
    if not (b > 0 and c > 0):
        raise DomainError("operator check requires b > 0 and c > 0")
    t = mp.tan(theta)
    def func(b, c):
        return kernels.axial_t_kernel(mp, b, c)(t, Gap(None, None))
    return laplace_residual_of(func, b, c, ctx, corrupted=corrupted)
