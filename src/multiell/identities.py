"""Identity catalog, verification driver, parameter sweeps, and report export.

Each catalog row pairs a left-hand side (a quadrature or a series partial
sum) with a closed-form right-hand side.  The I-numbering is this
artifact's own labeling scheme.  A report passes when the absolute
discrepancy sits below ctx.pass_tol * max(1, |rhs|); a complex (mpc)
left-hand side additionally requires its imaginary part to sit below ten
times the quadrature error estimate (I4 and I5, points of I1 at an imaginary
a, have a weight conjugate-symmetric about x = 1/2, so the imaginary part
must vanish -- tested, not assumed).  I2-I5 and I10 are _WEIGHTED_ROWS, and
I1-ext is I1(1/a)/a (see _inverted).  Both sides are compared unrounded,
at integrate's precision ctx.boosted(GUARD); only _verify_points rounds.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass

import mpmath
from mpmath.libmp import from_rational

from . import kernels
from .elliptic import generating_integral_closed_form
from .errors import DomainError, OutOfDomainError
from .gammafn import gamma
from .precision import PrecisionContext
from .quadrature import GUARD, MAX_LEVEL, IntegralSpec, integrate
from .series import (SERIES_R, SeriesId, clausen_sum, legendre_sum, linear_bridge,
                     ramanujan_sum, ramanujan_target)
from .singular import SINGULAR_VALUES


@dataclass(frozen=True)
class ParamSpec:
    """Domain of one identity parameter: an interval or discrete choices."""

    name: str
    lo: object = None
    hi: object = None
    lo_open: bool = False
    hi_open: bool = False
    choices: tuple = None

    def describe(self) -> str:
        if self.choices is not None:
            return f"{self.name} in {{{', '.join(str(c) for c in self.choices)}}}"
        left = "(" if self.lo_open else "["
        right = ")" if self.hi_open or self.hi is None else "]"
        hi = "inf" if self.hi is None else self.hi
        return f"{self.name} in {left}{self.lo}, {hi}{right}"

    def validate(self, value, mp):
        if self.choices is not None:
            try:
                as_int = int(value)
                if isinstance(value, bool) or as_int != (
                        float(value) if not isinstance(value, str) else as_int):
                    raise ValueError
            except (TypeError, ValueError, OverflowError):
                raise OutOfDomainError(f"{self.name} must be an integer choice, got {value!r}")
            if as_int not in self.choices:
                raise OutOfDomainError(f"{self.name} must be one of {self.choices}, got {as_int}")
            return as_int
        try:
            if isinstance(value, bool):  # mp.mpf would read True as 1
                raise TypeError(value)
            v = mp.mpf(value)
        except (TypeError, ValueError):
            raise OutOfDomainError(f"{self.name} must be numeric, got {value!r}")
        if not mp.isfinite(v):
            raise OutOfDomainError(f"{self.name} must be finite, got {value!r}")
        lo = None if self.lo is None else mp.mpf(self.lo)
        hi = None if self.hi is None else mp.mpf(self.hi)
        if lo is not None and (v < lo or (self.lo_open and v == lo)):
            raise OutOfDomainError(f"{self.name} = {v} below domain {self.describe()}")
        if hi is not None and (v > hi or (self.hi_open and v == hi)):
            raise OutOfDomainError(f"{self.name} = {v} above domain {self.describe()}")
        return v


@dataclass(frozen=True)
class IdentityRecord:
    """One catalog row.

    lhs(ctx, points, max_level) takes a list of validated parameter dicts
    and returns one unrounded (value, err_estimate) pair per point
    (err_estimate is None for series rows); rhs(hi, params) is the closed
    form at one point in the context hi, ctx.boosted(GUARD) in verify.
    """

    id: str
    description: str
    params: tuple
    lhs: object
    rhs: object

    def param_names(self):
        return tuple(p.name for p in self.params)

    def summary(self) -> str:
        doms = ", ".join(p.describe() for p in self.params) or "no parameters"
        return f"{self.id:7s} {doms:28s} {self.description}"


@dataclass(frozen=True)
class VerificationReport:
    id: str
    params: dict
    lhs_value: object
    rhs_value: object
    abs_err: object
    rel_err: object
    passed: bool
    digits_used: int
    wall_time: float
    err_estimate: object = None


def _series_terms(ratio, digits: int) -> int:
    """Terms needed for a geometric-ish series with per-term factor `ratio`."""
    r = abs(ratio)
    if r == 0:
        return 1
    # ln in r's own context: as a float, a^2 below 5e-324 is 0
    return int((digits + 12) * math.log(10) / -r.context.ln(r)) + 10


def _quad_lhs(spec_builder):
    """LHS integrating spec_builder(ctx, p) at each point p, one call per point."""
    def lhs(ctx, points, max_level):
        results = [integrate(spec_builder(ctx, p), ctx, max_level=max_level) for p in points]
        return [(r.value, r.err_estimate) for r in results]
    return lhs


def _weighted_lhs(point_of=lambda hi, p: (p["a"], (1,))):
    """LHS of points (a, c) = point_of(hi, p) of the weighted K-kernel integral, I1's by default.

    hi is the guard context.  Value sum_j c_j v_j, estimate sum_j |c_j| e_j, over the
    components v_j at a (see kernels.weighted_kernel); all points' a in one vector integral.
    """
    def lhs(ctx, points, max_level):
        data = [point_of(ctx.boosted(GUARD), p) for p in points]
        a, c = data[0]
        order = 0 if hasattr(a, "_mpc_") else len(c) - 1
        result = integrate(kernels.weighted_kernel_spec(tuple(a for a, _ in data), order),
                           ctx, max_level=max_level)
        values, errs = iter(result.value), iter(result.err_estimate)
        return [(sum(cj * next(values) for cj in c), sum(abs(cj) * next(errs) for cj in c))
                for _, c in data]
    return lhs


def _bridged(series_id, scale):
    """(point, rhs) of scale (alpha I1 + beta I1')(a*), with (alpha, beta, a*) the bridge of a
    Ramanujan series to T/pi: the Clausen series is (4/pi^2) I1, so the value is scale pi T/4."""
    def point(hi, p):
        bridge = linear_bridge(series_id, hi)
        return bridge.a_star, (scale * bridge.alpha, scale * bridge.beta)
    return point, lambda hi, p: (scale * hi.mp.pi / 4
                                 * SINGULAR_VALUES[SERIES_R[series_id]].series(hi.mp)[3])


def _imaginary(hi, r):
    """Point i beta and coefficients (beta, i beta) of beta I1(i beta), at r's beta."""
    beta = SINGULAR_VALUES[r].beta(hi.mp)
    return hi.mp.j * beta, (beta, hi.mp.j * beta)


def _gamma_rhs(r):
    """RHS of the row at singular value r: its Gamma form, evaluated in hi itself."""
    return lambda hi, p: SINGULAR_VALUES[r].gamma(hi.mp, lambda x: gamma(x, hi))


def _inverted(hi, p):
    """Point 1/a, coefficient 1/a: I1(a) = I1(1/a)/a, as (1 - 2ta + a^2)^(-1/2) =
    a^(-1) (1 - 2t/a + a^(-2))^(-1/2); it keeps relative digits where I1(a) ~ pi^2/(4a)
    falls below the panel's fixed-point unit."""
    inverse = 1 / hi.mp.convert(p["a"])
    return inverse, (inverse,)


# Rows the paper reduces to I1(a), as (point, rhs), their data read from the
# singular-value table: I3 = I1(sqrt(-z)) at r = 4; I4 and I5 are beta I1(i beta)
# at r = 3 and 7; I2 and I10 are I12's two series, bridged to I1 and I1' at a*,
# times 1/4 and -1/16.
_WEIGHTED_ROWS = {
    "I2": _bridged(SeriesId.RAMANUJAN_2SQRT2, 0.25),
    "I3": (lambda hi, p: (hi.mp.sqrt(-SINGULAR_VALUES[4].series(hi.mp)[0]), (1,)),
           _gamma_rhs(4)),
    "I4": (lambda hi, p: _imaginary(hi, 3), _gamma_rhs(3)),
    "I5": (lambda hi, p: _imaginary(hi, 7), _gamma_rhs(7)),
    "I10": _bridged(SeriesId.RAMANUJAN_4SQRT2, -0.0625),
}


def _weighted_row(rid):
    """(lhs, rhs) of a _WEIGHTED_ROWS row."""
    return _weighted_lhs(_WEIGHTED_ROWS[rid][0]), _WEIGHTED_ROWS[rid][1]


def _unit_kernel_lhs(factory):
    """LHS of a parameter-free row: factory's K kernel integrated over (0, 1)."""
    return _quad_lhs(lambda ctx, p: IntegralSpec(
        factory.__name__, (), (0, 1), factory, singular_points=(0.5,)))


def _axial_rhs(hi, p):
    b, c = hi.mp.convert(p["b"]), hi.mp.convert(p["c"])
    return hi.mp.pi / (2 * hi.mp.sqrt((b + 1) ** 2 + c * c))


def _clausen_lhs(ctx, points, max_level):
    return [(clausen_sum(p["a"], _series_terms(p["a"] ** 2, ctx.digits), ctx), None)
            for p in points]


def _ramanujan_lhs(ctx, points, max_level):
    out = []
    for p in points:
        sid = tuple(SeriesId)[p["variant"]]  # I12's variants are the SeriesIds in order
        z = SINGULAR_VALUES[SERIES_R[sid]].series(ctx.mp)[0]
        out.append((ramanujan_sum(sid, _series_terms(z, ctx.digits), ctx), None))
    return out


def _generating_rhs(hi, p):
    return generating_integral_closed_form(p["a"], hi)


def _legendre_rhs(hi, p):
    # hi carries GUARD digits; the term count is the working precision's
    return legendre_sum(p["a"], _series_terms(p["a"] ** 2, hi.digits - GUARD), hi)


# I6's and I9's bounds are measured: past them the semi-infinite panel can
# converge falsely (see integrate), so a point there raises OutOfDomainError
_CATALOG = {rec.id: rec for rec in (
    IdentityRecord("I1", "weighted K-kernel integral vs squared-K closed form",
                   (ParamSpec("a", lo=0, hi=1),), _weighted_lhs(), _generating_rhs),
    IdentityRecord("I1-ext", "weighted K-kernel integral past the critical parameter",
                   (ParamSpec("a", lo=1, lo_open=True),), _weighted_lhs(_inverted), _generating_rhs),
    IdentityRecord("I2", "rational-weight K integral; value pi/(4 sqrt 2)",
                   (), *_weighted_row("I2")),
    IdentityRecord("I3", "r=4 singular-value K integral; value Gamma(1/4)^4/(16 sqrt2 pi)",
                   (), *_weighted_row("I3")),
    IdentityRecord("I4", "complex-kernel K integral for the r=3 singular value",
                   (), *_weighted_row("I4")),
    IdentityRecord("I5", "complex-kernel K integral for the r=7 singular value",
                   (), *_weighted_row("I5")),
    IdentityRecord("I6", "axially symmetric K integral with two tunable parameters",
                   (ParamSpec("b", lo=0, hi="1e10"), ParamSpec("c", lo=0, hi="1e10")),
                   _quad_lhs(lambda ctx, p: kernels.axial_t_spec(p["b"], p["c"])), _axial_rhs),
    IdentityRecord("I7", "axial special case on (0,1); value pi/(2 sqrt 2)",
                   (), _unit_kernel_lhs(kernels.special_case_kernel),
                   lambda hi, p: hi.mp.pi / (2 * hi.mp.sqrt(2))),
    IdentityRecord("I8", "plain K-kernel integral; value pi^2/4",
                   (), _unit_kernel_lhs(kernels.k_of_x),
                   lambda hi, p: hi.mp.pi ** 2 / 4),
    IdentityRecord("I9", "semi-infinite Re K integral; value pi/(2 sqrt(1+c^2))",
                   (ParamSpec("c", lo="1e-10", hi="1e10"),),
                   _quad_lhs(lambda ctx, p: kernels.semi_infinite_spec(
                       kernels.re_k_semi_infinite_kernel, p["c"])),
                   lambda hi, p: _axial_rhs(hi, {"b": 0, "c": p["c"]})),
    IdentityRecord("I10", "signed rational-weight K integral; value -pi/(8 sqrt 2)",
                   (), *_weighted_row("I10")),
    IdentityRecord("I11", "Clausen-type series vs squared-K closed form",
                   (ParamSpec("a", lo=0, hi="0.95"),), _clausen_lhs,
                   lambda hi, p: 4 / hi.mp.pi ** 2 * generating_integral_closed_form(p["a"], hi)),
    IdentityRecord("I12", "level-4 Ramanujan-type series vs algebraic multiple of 1/pi",
                   (ParamSpec("variant", choices=(0, 1)),), _ramanujan_lhs,
                   lambda hi, p: ramanujan_target(tuple(SeriesId)[p["variant"]], hi)),
    IdentityRecord("I13", "quadrature route vs Legendre-projection series route",
                   (ParamSpec("a", lo=0, hi="0.95"),), _weighted_lhs(), _legendre_rhs),
)}
CATALOG_ORDER = tuple(_CATALOG)


def list_identities():
    """Catalog rows in deterministic order (I1, I1-ext, I2, ..., I13)."""
    return [_CATALOG[i] for i in CATALOG_ORDER]


def get_identity(identity_id: str) -> IdentityRecord:
    rec = _CATALOG.get(identity_id)
    if rec is None:
        raise DomainError(f"unknown identity {identity_id!r}; known: {', '.join(CATALOG_ORDER)}")
    return rec


def _validated(rec: IdentityRecord, params, ctx: PrecisionContext):
    """params checked against rec's declared parameters and domains."""
    params = dict(params or {})
    unknown = set(params) - set(rec.param_names())
    if unknown:
        raise OutOfDomainError(f"{rec.id} does not take parameters {sorted(unknown)}")
    missing = set(rec.param_names()) - set(params)
    if missing:
        raise OutOfDomainError(f"{rec.id} requires parameters {sorted(missing)}")
    return {p.name: p.validate(params[p.name], ctx.mp) for p in rec.params}


def _rounded_up(ctx, estimate):
    """estimate > 0 up to two significant digits, the least q 10^e >= it with
    10 <= q <= 100, rounded up into ctx: an estimate holds no more digits."""
    _, man, exp, bits = estimate._mpf_
    num, den = man << max(exp, 0), 1 << max(-exp, 0)  # estimate = num / den
    e = math.floor((exp + bits) * math.log10(2)) - 2  # estimate / 10^e in [50, 1000)
    while (q := -(-num * 10 ** max(-e, 0) // (den * 10 ** max(e, 0)))) > 100:  # ceil
        e += 1
    top, bottom = q * 10 ** max(e, 0), 10 ** max(-e, 0)
    return ctx.mp.make_mpf(from_rational(top, bottom, ctx.mp.prec, "u"))


def _verify_points(rec: IdentityRecord, points, ctx: PrecisionContext, max_level: int):
    """One report per validated parameter dict, from one batched LHS call.

    The pass rule is applied to the unrounded sides in ctx.boosted(GUARD);
    each reported number is then rounded to ctx.digits once, the estimate
    floored at the reported lhs's rounding, (1 + |lhs|) 10^-digits, and
    rounded up (_rounded_up).  Each report's wall_time is its even share of
    the LHS time plus the time of its own RHS.
    """
    t0 = time.perf_counter()
    lhs = rec.lhs(ctx, points, max_level)
    lhs_share = (time.perf_counter() - t0) / len(points)
    guard = ctx.boosted(GUARD)
    mp = guard.mp
    reports = []
    for validated, (lhs_value, err_estimate) in zip(points, lhs):
        t0 = time.perf_counter()
        rhs_value = mp.convert(rec.rhs(guard, validated))
        wall = lhs_share + time.perf_counter() - t0
        lhs_value = mp.convert(lhs_value)
        abs_err = abs(lhs_value - rhs_value)
        passed = abs_err <= ctx.pass_tol * max(mp.one, abs(rhs_value))
        if hasattr(lhs_value, "_mpc_"):
            passed = passed and abs(lhs_value.imag) <= 10 * err_estimate
        if err_estimate is not None:
            floor = (1 + abs(lhs_value)) * mp.mpf(10) ** -ctx.digits
            err_estimate = _rounded_up(ctx, max(err_estimate, floor))
        reports.append(VerificationReport(
            id=rec.id, params=validated, lhs_value=ctx.reduce(lhs_value),
            rhs_value=ctx.reduce(rhs_value), abs_err=ctx.reduce(abs_err),
            rel_err=ctx.reduce(abs_err / abs(rhs_value)), passed=bool(passed),
            digits_used=ctx.digits, wall_time=wall, err_estimate=err_estimate))
    return reports


def verify(identity_id: str, params, ctx: PrecisionContext, *,
           max_level: int = MAX_LEVEL) -> VerificationReport:
    """Evaluate both sides of one identity and compare.

    params maps parameter names to values (numbers or decimal strings);
    every declared parameter is required.  Deterministic for a fixed ctx
    (modulo wall_time).
    """
    rec = get_identity(identity_id)
    return _verify_points(rec, [_validated(rec, params, ctx)], ctx, max_level)[0]


def sweep(identity_id: str, param_name: str, lo, hi, steps: int,
          ctx: PrecisionContext, *, fixed=None, max_level: int = MAX_LEVEL):
    """Verify along a uniform inclusive grid of one parameter.

    The grid's left-hand sides are evaluated together: on I1, I1-ext and
    I13 as one vector integral that shares its K values across the grid.
    """
    rec = get_identity(identity_id)
    if param_name not in rec.param_names():
        raise OutOfDomainError(f"{identity_id} has no parameter {param_name!r}")
    if not isinstance(steps, int) or steps < 2:
        raise DomainError(f"steps must be an integer >= 2, got {steps!r}")
    mp = ctx.mp
    pspec = next(p for p in rec.params if p.name == param_name)
    lo_v = pspec.validate(lo, mp)
    hi_v = pspec.validate(hi, mp)
    if not lo_v < hi_v:
        raise DomainError(f"degenerate sweep range [{lo_v}, {hi_v}]")
    points = []
    for k in range(steps):
        params = dict(fixed or {})
        params[param_name] = lo_v + (hi_v - lo_v) * k / (steps - 1)
        points.append(_validated(rec, params, ctx))
    return _verify_points(rec, points, ctx, max_level)


def _decimal(value, digits: int) -> str:
    return mpmath.nstr(value, digits)


def _rows(reports):
    for r in reports:
        yield {
            "id": r.id,
            "params": {k: _decimal(v, r.digits_used) for k, v in r.params.items()},
            "lhs": _decimal(r.lhs_value, r.digits_used),
            "rhs": _decimal(r.rhs_value, r.digits_used),
            "abs_err": _decimal(r.abs_err, r.digits_used),
            "rel_err": _decimal(r.rel_err, r.digits_used),
            "passed": r.passed,
            "digits": r.digits_used,
            "wall_ms": _decimal(r.wall_time * 1000, 10),
        }


def _csv_field(value) -> str:
    """One CSV cell: params as name=value pairs joined by ';', booleans lowercase."""
    if isinstance(value, dict):
        return ";".join(f"{k}={v}" for k, v in value.items())
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def export(reports, format: str = "json") -> bytes:
    """Serialize reports; JSON is an array of objects, CSV one row per report.

    Numeric fields are decimal strings at full working precision; CSV uses
    comma separators and LF line endings.
    """
    rows = list(_rows(reports))
    if not rows:
        raise DomainError("cannot export an empty report list")
    if format == "json":
        return json.dumps(rows, indent=2).encode()
    if format == "csv":
        lines = [",".join(rows[0])] + [",".join(map(_csv_field, row.values())) for row in rows]
        return ("\n".join(lines) + "\n").encode()
    raise DomainError(f"unknown export format {format!r}")
