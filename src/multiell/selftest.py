"""Property suites runnable from the CLI: orthogonality, transform
residuals, annihilator grids, negative controls, and the substitution
chain for the semi-infinite form.  Quick mode runs the same grids at 30
digits instead of the requested precision.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import lru_cache

from . import kernels
from .diffop import laplace_residual, laplace_residual_of, ode_residual_of, weighted_derivatives
from .elliptic import ellipk
from .legendre import orthogonality_gram
from .precision import PrecisionContext
from .quadrature import integrate
from .singular import SUPPORTED_R, singular_value_residual

GRAM_ORDER = 12
ODE_GRID = tuple(f"0.{k}" for k in range(1, 10))
LAPLACE_THETAS = ("pi/6", "pi/4", "pi/3")
LAPLACE_BC = ("0.5", "1", "2")
CHAIN_C = ("0.5", "1", "2")
CONTROL_RATIO = 10 ** 6


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str
    seconds: float


def _theta_value(mp, label):
    num = {"pi/6": 6, "pi/4": 4, "pi/3": 3}[label]
    return mp.pi / num


def _check(name, fn, ctx):
    t0 = time.perf_counter()
    passed, detail = fn(ctx)
    return CheckResult(name, passed, detail, time.perf_counter() - t0)


def _gram_check(ctx):
    mp = ctx.mp
    gram = orthogonality_gram(GRAM_ORDER, ctx)
    worst = mp.zero
    for n in range(GRAM_ORDER + 1):
        for m in range(GRAM_ORDER + 1):
            exact = mp.one / (2 * n + 1) if n == m else mp.zero
            worst = max(worst, abs(gram[n][m] - exact))
    tol = 10 * ctx.quad_target
    return worst <= tol, f"max entry error {mp.nstr(worst, 3)} (tol {mp.nstr(tol, 3)})"


def _transform_check(ctx):
    mp = ctx.mp
    worst = mp.zero
    for tenths in range(1, 10):
        k = mp.mpf(tenths) / 10
        kp = mp.sqrt(1 - k * k)
        gap = abs(kp * ellipk(k * k, ctx) - ellipk(-k * k / (1 - k * k), ctx))
        worst = max(worst, gap)
    return worst <= ctx.pass_tol, f"max residual {mp.nstr(worst, 3)} (tol {mp.nstr(ctx.pass_tol, 3)})"


def _singular_check(ctx):
    mp = ctx.mp
    worst = max(singular_value_residual(r, ctx) for r in SUPPORTED_R)
    return worst <= ctx.pass_tol, f"max residual {mp.nstr(worst, 3)} (tol {mp.nstr(ctx.pass_tol, 3)})"


@lru_cache(maxsize=1)
def _ode_grid(ctx):
    """((a, derivatives 0..3 of the weighted integral at a)) over ODE_GRID.

    One 36-component integral, shared by the grid check and the negative
    control; the cache keeps only the latest run's context and grid.
    """
    a_values = [ctx.mp.mpf(a) for a in ODE_GRID]
    return tuple(zip(a_values, map(tuple, weighted_derivatives(a_values, ctx))))


def _ode_grid_check(ctx):
    mp = ctx.mp
    worst_ratio = mp.zero
    for a, derivs in _ode_grid(ctx):
        res = ode_residual_of(a, derivs, ctx)
        if not res.passed:
            return False, f"residual {mp.nstr(res.residual, 3)} at a={a} exceeds {mp.nstr(res.tolerance, 3)}"
        worst_ratio = max(worst_ratio, res.residual / res.scale)
    return True, f"max residual/scale {mp.nstr(worst_ratio, 3)} over a in {{0.1..0.9}}"


def _control_verdict(ctx, clean, bad):
    """The corrupted operator's residual must exceed the clean one by CONTROL_RATIO.

    A clean residual below 10^(-2 digits), such as an exact 0, is replaced
    by that floor; the ratio is then corrupted/floor, a lower bound on the
    true ratio rather than a measurement, and the detail says so.
    """
    mp = ctx.mp
    floor = mp.mpf(10) ** (-(2 * ctx.digits))
    ratio = bad / max(clean, floor)
    detail = f"corrupted/clean residual ratio {mp.nstr(ratio, 3)}"
    if clean < floor:
        detail = (f"corrupted/clean residual ratio >= {mp.nstr(ratio, 3)} (lower bound: clean"
                  f" residual {mp.nstr(clean, 3)} is below the floor 1e-{2 * ctx.digits},"
                  f" which stands in for it)")
    return ratio >= CONTROL_RATIO, detail


def _ode_control_check(ctx):
    a, derivs = _ode_grid(ctx)[ODE_GRID.index("0.5")]
    clean = ode_residual_of(a, derivs, ctx)
    bad = ode_residual_of(a, derivs, ctx, corrupted=True)
    return _control_verdict(ctx, clean.residual, bad.residual)


def _laplace_grid_check(ctx):
    mp = ctx.mp
    worst = mp.zero
    for label in LAPLACE_THETAS:
        theta = _theta_value(mp, label)
        for b in LAPLACE_BC:
            for c in LAPLACE_BC:
                res = laplace_residual(theta, mp.mpf(b), mp.mpf(c), ctx)
                if not res.passed:
                    return False, (f"residual {mp.nstr(res.residual, 3)} at "
                                   f"(theta={label}, b={b}, c={c})")
                worst = max(worst, res.residual / res.scale)
    return True, f"max residual/scale {mp.nstr(worst, 3)} over the 3x3x3 grid"


def _laplace_control_check(ctx):
    mp = ctx.mp
    theta = mp.pi / 4
    clean = laplace_residual(theta, mp.one, mp.one, ctx)
    bad = laplace_residual(theta, mp.one, mp.one, ctx, corrupted=True)
    return _control_verdict(ctx, clean.residual, bad.residual)


def _harmonic_reference_check(ctx):
    mp = ctx.boosted(20).mp

    def harmonic(b, c):
        # axially symmetric harmonic function, c radial and b axial
        return 1 / mp.sqrt(c * c + (b - 3) ** 2)

    residual, scale, tol, ok = laplace_residual_of(harmonic, mp.one, mp.one, ctx)
    return ok, f"residual/scale {mp.nstr(residual / scale, 3)} (tol/scale {mp.nstr(tol / scale, 3)})"


def _chain_check(ctx):
    """t-, x- and Re-K-forms of the b=0 axial integral agree pairwise."""
    mp = ctx.mp
    worst = mp.zero
    for c_label in CHAIN_C:
        c = mp.mpf(c_label)
        specs = (kernels.axial_t_spec(0, c),
                 kernels.semi_infinite_spec(kernels.axial_x_form_kernel, c),
                 kernels.semi_infinite_spec(kernels.re_k_semi_infinite_kernel, c))
        values = [integrate(s, ctx).value for s in specs]
        for i, u in enumerate(values):
            for v in values[i + 1:]:
                worst = max(worst, abs(u - v))
    return worst <= ctx.pass_tol, (f"max pairwise gap {mp.nstr(worst, 3)} over the t, x and"
                                   f" Re K forms (tol {mp.nstr(ctx.pass_tol, 3)})")


_CHECKS = (
    ("legendre-orthogonality", _gram_check),
    ("imaginary-modulus-transform", _transform_check),
    ("singular-value-residuals", _singular_check),
    ("ode-annihilator-grid", _ode_grid_check),
    ("ode-negative-control", _ode_control_check),
    ("laplace-annihilator-grid", _laplace_grid_check),
    ("laplace-negative-control", _laplace_control_check),
    ("laplace-harmonic-reference", _harmonic_reference_check),
    ("semi-infinite-substitution-chain", _chain_check),
)


def run_selftest(digits: int = 50, quick: bool = False, write=print):
    """Run all property suites; returns the list of CheckResult."""
    ctx = PrecisionContext(30 if quick else digits)
    results = []
    for name, fn in _CHECKS:
        res = _check(name, fn, ctx)
        results.append(res)
        status = "PASS" if res.passed else "FAIL"
        write(f"[{status}] {res.name:34s} ({res.seconds:6.2f}s)  {res.detail}")
    total = sum(r.seconds for r in results)
    good = sum(1 for r in results if r.passed)
    write(f"{good}/{len(results)} checks passed in {total:.1f}s at digits={ctx.digits}")
    return results
