"""Identity catalog, verification driver, parameter sweeps, and report export.

Each catalog row pairs a left-hand side (a quadrature or a series partial
sum) with a closed-form right-hand side.  The I-numbering is this
artifact's own labeling scheme.  A report passes when the absolute
discrepancy sits below ctx.pass_tol * max(1, |rhs|); a complex (mpc)
quadrature value additionally requires its imaginary part to sit below ten
times the quadrature error estimate (the complex kernels are
conjugate-symmetric, so the imaginary part must vanish -- tested, not
assumed).
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass

import mpmath

from . import kernels
from .elliptic import generating_integral_closed_form
from .errors import DomainError, OutOfDomainError
from .precision import PrecisionContext
from .quadrature import MAX_LEVEL, IntegralSpec, integrate
from .series import (SeriesId, _ramanujan_data, clausen_sum, legendre_sum,
                     ramanujan_sum, ramanujan_target)
from .singular import rhs_constant

_HALF = 0.5  # the singular abscissa of the K(2 sqrt(x(1-x))) family (exact binary)


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
                if as_int != (float(value) if not isinstance(value, str) else as_int):
                    raise ValueError
            except (TypeError, ValueError):
                raise OutOfDomainError(f"{self.name} must be an integer choice, got {value!r}")
            if as_int not in self.choices:
                raise OutOfDomainError(f"{self.name} must be one of {self.choices}, got {as_int}")
            return as_int
        try:
            v = mp.mpf(value)
        except (TypeError, ValueError):
            raise OutOfDomainError(f"{self.name} must be numeric, got {value!r}")
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
    and returns one (value, err_estimate) pair per point (err_estimate is
    None for series rows); rhs(ctx, params) is the closed form at one point.
    """

    id: str
    description: str
    params: tuple
    singular_notes: str
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
    return max(60, int((digits + 12) * math.log(10) / -math.log(r)) + 10)


def _quad_lhs(spec_builder):
    """LHS integrating spec_builder(ctx, p) at each point p, one call per point."""
    def lhs(ctx, points, max_level):
        results = [integrate(spec_builder(ctx, p), ctx, max_level=max_level) for p in points]
        return [(r.value, r.err_estimate) for r in results]
    return lhs


def _weighted_lhs(ctx, points, max_level):
    """LHS of the weighted rows: every point's a in one vector integral."""
    spec = kernels.weighted_kernel_spec(tuple(p["a"] for p in points))
    result = integrate(spec, ctx, max_level=max_level)
    return list(zip(result.value, result.err_estimate))


def _unit_kernel_lhs(factory):
    """LHS of a parameter-free row: factory's K kernel integrated over (0, 1)."""
    return _quad_lhs(lambda ctx, p: IntegralSpec(
        factory.__name__, (), (0, 1), factory, singular_points=(_HALF,)))


def _closed_form_rhs(value_of_mp):
    """RHS constant value_of_mp(mp), evaluated at guard precision."""
    return lambda ctx, p: ctx.reduce(value_of_mp(ctx.boosted(10).mp))


def _build_catalog():
    records = []

    def add(*args, **kw):
        records.append(IdentityRecord(*args, **kw))

    unit_a = ParamSpec("a", lo=0, hi=1)
    series_a = ParamSpec("a", lo=0, hi="0.95")
    log_half = "kernel log-singular at x=1/2"
    complex_root = "kernel log-singular at x=1/2; principal-branch root"
    add("I1", "weighted K-kernel integral vs squared-K closed form",
        (unit_a,), log_half, _weighted_lhs,
        lambda ctx, p: generating_integral_closed_form(p["a"], ctx))

    add("I1-ext", "weighted K-kernel integral past the critical parameter",
        (ParamSpec("a", lo=1, lo_open=True),),
        "kernel log-singular at x=1/2; no smooth continuation across a=1",
        _weighted_lhs,
        lambda ctx, p: generating_integral_closed_form(p["a"], ctx))

    add("I2", "rational-weight K integral; value pi/(4 sqrt 2)",
        (), log_half, _unit_kernel_lhs(kernels.ratio_kernel_2sqrt2),
        _closed_form_rhs(lambda mp: mp.pi / (4 * mp.sqrt(2))))

    add("I3", "r=4 singular-value K integral; value Gamma(1/4)^4/(16 sqrt2 pi)",
        (), log_half, _unit_kernel_lhs(kernels.singular_value_kernel_r4),
        lambda ctx, p: rhs_constant("I3", ctx))

    add("I4", "complex-kernel K integral for the r=3 singular value",
        (), complex_root, _unit_kernel_lhs(kernels.complex_kernel_r3),
        lambda ctx, p: rhs_constant("I4", ctx))

    add("I5", "complex-kernel K integral for the r=7 singular value",
        (), complex_root, _unit_kernel_lhs(kernels.complex_kernel_r7),
        lambda ctx, p: rhs_constant("I5", ctx))

    add("I6", "axially symmetric K integral with two tunable parameters",
        (ParamSpec("b", lo=0), ParamSpec("c", lo=0)),
        "singular at t = c when b = 0",
        _quad_lhs(lambda ctx, p: kernels.axial_t_spec(p["b"], p["c"])), _axial_rhs)

    add("I7", "axial special case on (0,1); value pi/(2 sqrt 2)",
        (), log_half, _unit_kernel_lhs(kernels.special_case_kernel),
        _closed_form_rhs(lambda mp: mp.pi / (2 * mp.sqrt(2))))

    add("I8", "plain K-kernel integral; value pi^2/4",
        (), log_half, _unit_kernel_lhs(kernels.k_of_x),
        _closed_form_rhs(lambda mp: mp.pi ** 2 / 4))

    add("I9", "semi-infinite Re K integral; value pi/(2 sqrt(1+c^2))",
        (ParamSpec("c", lo=0, lo_open=True),),
        "Re K switches branch formula at x=1 (log-singular there)",
        _quad_lhs(lambda ctx, p: kernels.semi_infinite_spec(
            kernels.re_k_semi_infinite_kernel, p["c"])),
        lambda ctx, p: _axial_rhs(ctx, {"b": 0, "c": p["c"]}))

    add("I10", "signed rational-weight K integral; value -pi/(8 sqrt 2)",
        (), log_half, _unit_kernel_lhs(kernels.signed_kernel_4sqrt2),
        _closed_form_rhs(lambda mp: -mp.pi / (8 * mp.sqrt(2))))

    add("I11", "Clausen-type series vs squared-K closed form",
        (series_a,), "series converges like a^(2n)",
        _clausen_lhs, _clausen_rhs)

    add("I12", "level-4 Ramanujan-type series vs algebraic multiple of 1/pi",
        (ParamSpec("variant", choices=(0, 1)),),
        "variant 0 sums to 2 sqrt2/pi, variant 1 to 4 sqrt2/pi",
        _ramanujan_lhs, _ramanujan_rhs)

    add("I13", "quadrature route vs Legendre-projection series route",
        (series_a,), log_half, _weighted_lhs,
        lambda ctx, p: legendre_sum(p["a"], _series_terms(p["a"] ** 2, ctx.digits), ctx))

    return {rec.id: rec for rec in records}


def _axial_rhs(ctx, p):
    hi = ctx.boosted(10)
    mp = hi.mp
    b, c = mp.convert(p["b"]), mp.convert(p["c"])
    return ctx.reduce(mp.pi / (2 * mp.sqrt((b + 1) ** 2 + c * c)))


def _variant_series(variant: int):
    return SeriesId.RAMANUJAN_2SQRT2 if variant == 0 else SeriesId.RAMANUJAN_4SQRT2


def _clausen_lhs(ctx, points, max_level):
    return [(clausen_sum(p["a"], _series_terms(p["a"] ** 2, ctx.digits), ctx), None)
            for p in points]


def _clausen_rhs(ctx, p):
    hi = ctx.boosted(10)
    value = generating_integral_closed_form(p["a"], hi)
    return ctx.reduce(4 / hi.mp.pi ** 2 * value)


def _ramanujan_lhs(ctx, points, max_level):
    out = []
    for p in points:
        sid = _variant_series(p["variant"])
        z = _ramanujan_data(sid, ctx.boosted(10).mp)[0]
        out.append((ramanujan_sum(sid, _series_terms(z, ctx.digits), ctx), None))
    return out


def _ramanujan_rhs(ctx, p):
    return ramanujan_target(_variant_series(p["variant"]), ctx)


_CATALOG = _build_catalog()
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


def _verify_points(rec: IdentityRecord, points, ctx: PrecisionContext, max_level: int):
    """One report per validated parameter dict, from one batched LHS call.

    Each report's wall_time is its even share of the LHS time plus the
    time of its own RHS.
    """
    t0 = time.perf_counter()
    lhs = rec.lhs(ctx, points, max_level)
    lhs_share = (time.perf_counter() - t0) / len(points)
    mp = ctx.mp
    reports = []
    for validated, (lhs_value, err_estimate) in zip(points, lhs):
        t0 = time.perf_counter()
        rhs_value = rec.rhs(ctx, validated)
        wall = lhs_share + time.perf_counter() - t0
        abs_err = +abs(mp.convert(lhs_value) - mp.convert(rhs_value))
        rel_err = +(abs_err / abs(mp.convert(rhs_value)))
        passed = abs_err <= ctx.pass_tol * max(mp.one, abs(mp.convert(rhs_value)))
        if hasattr(lhs_value, "_mpc_"):
            passed = bool(passed and abs(lhs_value.imag) <= 10 * err_estimate)
        reports.append(VerificationReport(
            id=rec.id, params=validated, lhs_value=lhs_value, rhs_value=rhs_value,
            abs_err=abs_err, rel_err=rel_err, passed=bool(passed),
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


def export(reports, format: str = "json") -> bytes:
    """Serialize reports; JSON is an array of objects, CSV one row per report.

    Numeric fields are decimal strings at full working precision; CSV uses
    comma separators and LF line endings.
    """
    reports = list(reports)
    if not reports:
        raise DomainError("cannot export an empty report list")
    if format == "json":
        return json.dumps(list(_rows(reports)), indent=2).encode()
    if format == "csv":
        header = "id,params,lhs,rhs,abs_err,rel_err,passed,digits,wall_ms"
        lines = [header]
        for row in _rows(reports):
            params = ";".join(f"{k}={v}" for k, v in row["params"].items())
            lines.append(",".join([
                row["id"], params, row["lhs"], row["rhs"], row["abs_err"],
                row["rel_err"], "true" if row["passed"] else "false",
                str(row["digits"]), row["wall_ms"],
            ]))
        return ("\n".join(lines) + "\n").encode()
    raise DomainError(f"unknown export format {format!r}")
