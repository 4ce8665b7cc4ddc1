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

Residuals are reported together with the magnitude scale of the largest
operator term, and pass when residual <= tol * scale.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import kernels
from .elliptic import generating_integral_closed_form
from .errors import DomainError
from .fd import richardson_derivative
from .precision import PrecisionContext
from .quadrature import MAX_LEVEL, integrate

_FD_BOOST = 20


@dataclass(frozen=True)
class OdeResidual:
    a: object
    residual: object
    scale: object
    tolerance: object
    passed: bool


@dataclass(frozen=True)
class LaplaceResidual:
    theta: object
    b: object
    c: object
    residual: object
    scale: object
    tolerance: object
    passed: bool


def _ode_combine(mp, a, derivs, zeroth_factor):
    terms = (
        a * a * (1 + a * a) * derivs[3],
        3 * a * (1 + 2 * a * a) * derivs[2],
        (1 + 7 * a * a) * derivs[1],
        zeroth_factor * a * derivs[0],
    )
    residual = abs(terms[0] + terms[1] + terms[2] + terms[3])
    scale = max(abs(t) for t in terms)
    return residual, scale


def _ode_point(a, ctx: PrecisionContext):
    """a in ctx's precision, checked to lie in the operator checks' domain (0, 1)."""
    a = ctx.mp.convert(a)
    if not 0 < a < 1:
        raise DomainError(f"operator check requires a in (0, 1), got {a}")
    return a


def weighted_derivatives(a_values, ctx: PrecisionContext, *, max_level: int = MAX_LEVEL):
    """The weighted K-kernel integral and its first three a-derivatives at each a.

    One vector quadrature of the analytically differentiated weight over
    all of a_values, sharing each K value; returns one list of the four
    values per a, in the order of a_values.
    """
    mp = ctx.mp
    result = integrate(kernels.weighted_kernel_spec(a_values, 3), ctx, max_level=max_level)
    values = [mp.convert(v) for v in result.value]
    return [values[4 * i:4 * i + 4] for i in range(len(a_values))]


def ode_residual_of(a, derivs, ctx: PrecisionContext, *, corrupted: bool = False) -> OdeResidual:
    """The third-order operator's residual at a, from the integral's four derivatives.

    The tolerance is quadrature-limited, 10^(-digits/2) relative to scale.
    With ``corrupted`` the zeroth-order coefficient a is replaced by 2a.
    """
    mp = ctx.mp
    residual, scale = _ode_combine(mp, a, derivs, 2 if corrupted else 1)
    tol = mp.mpf(10) ** (-(ctx.digits // 2)) * scale
    return OdeResidual(a, +residual, +scale, +tol, residual <= tol)


def ode_annihilator_residual(a, ctx: PrecisionContext, *, corrupted: bool = False,
                             max_level: int = MAX_LEVEL) -> OdeResidual:
    """Apply the third-order operator to the weighted K-kernel integral.

    The integral and its first three a-derivatives come from one vector
    quadrature of the analytically differentiated weight.  With
    ``corrupted`` the zeroth-order coefficient a is replaced by 2a
    (negative control: the residual must then blow up by many orders of
    magnitude).
    """
    a = _ode_point(a, ctx)
    derivs, = weighted_derivatives((a,), ctx, max_level=max_level)
    return ode_residual_of(a, derivs, ctx, corrupted=corrupted)


def apply_annihilator_fd(f, a, ctx: PrecisionContext, *, zeroth_factor=1):
    """(residual, scale) of the third-order operator applied to f by FD.

    f maps an mpf (at ctx precision boosted for FD) to a value; derivatives
    use 5-point central stencils at h = 10^(-digits/5) with Richardson
    extrapolation over two step sizes.
    """
    work = ctx.boosted(_FD_BOOST)
    mp = work.mp
    a = mp.convert(a)
    h = mp.mpf(10) ** (-(ctx.digits // 5))
    derivs = [mp.convert(f(a))]
    for order in (1, 2, 3):
        derivs.append(richardson_derivative(f, a, order, h))
    return _ode_combine(mp, a, derivs, zeroth_factor)


def ode_annihilator_residual_closed_form(a, ctx: PrecisionContext) -> OdeResidual:
    """Apply the third-order operator to the squared-K closed form by FD.

    Certifies that the closed form solves the homogeneous equation; the
    tolerance is FD-truncation-limited, 10^(-digits/3) relative to scale.
    """
    a = _ode_point(a, ctx)
    work = ctx.boosted(_FD_BOOST)
    residual, scale = apply_annihilator_fd(
        lambda t: generating_integral_closed_form(t, work), a, ctx)
    tol = work.mp.mpf(10) ** (-(ctx.digits // 3)) * scale
    return OdeResidual(+a, ctx.reduce(residual), ctx.reduce(scale),
                       ctx.reduce(tol), residual <= tol)


def laplace_residual_of(func, b, c, ctx: PrecisionContext, *, corrupted: bool = False):
    """Cylindrical-Laplacian residual of func(b, c) by finite differences.

    func must be smooth near (b, c) and accept mpf arguments at boosted
    precision.  With ``corrupted`` the (1/c) d/dc term is dropped.
    Returns (residual, scale, tolerance, passed).
    """
    work = ctx.boosted(_FD_BOOST)
    mp = work.mp
    b = mp.convert(b)
    c = mp.convert(c)
    h = mp.mpf(10) ** (-(ctx.digits // 5))
    if not (b - 2 * h > 0 and c - 2 * h > 0):
        raise DomainError("stencil point leaves valid region")
    f_bb = richardson_derivative(lambda t: func(t, c), b, 2, h)
    f_cc = richardson_derivative(lambda t: func(b, t), c, 2, h)
    f_c = richardson_derivative(lambda t: func(b, t), c, 1, h)
    terms = (f_bb, f_cc) if corrupted else (f_bb, f_cc, f_c / c)
    residual = abs(sum(terms))
    scale = max(abs(f_bb), abs(f_cc), abs(f_c / c))
    tol = mp.mpf(10) ** (-(ctx.digits // 3)) * scale
    return residual, scale, tol, residual <= tol


def laplace_residual(theta, b, c, ctx: PrecisionContext, *,
                     corrupted: bool = False) -> LaplaceResidual:
    """Laplacian residual of the axial integrand at fixed t = tan theta.

    The integrand is kernels.axial_t_kernel's; its Jacobian to the theta
    form, 1 + t^2, is constant in (b, c).  Requires b, c > 0 and theta in
    (0, pi/2) with the inner parameter of K strictly inside (0, 1) at
    every stencil point.
    """
    work = ctx.boosted(_FD_BOOST)
    mp = work.mp
    theta = mp.convert(theta)
    b = mp.convert(b)
    c = mp.convert(c)
    if not 0 < theta < mp.pi / 2:
        raise DomainError(f"theta must lie in (0, pi/2), got {theta}")
    if not (b > 0 and c > 0):
        raise DomainError("operator check requires b > 0 and c > 0")
    t = mp.tan(theta)
    def func(b, c):
        return kernels.axial_t_kernel(mp, b, c)(t, c - t)
    residual, scale, tol, ok = laplace_residual_of(func, b, c, ctx, corrupted=corrupted)
    return LaplaceResidual(ctx.reduce(theta), ctx.reduce(b), ctx.reduce(c),
                           ctx.reduce(residual), ctx.reduce(scale),
                           ctx.reduce(tol), ok)
