"""Seeded workloads for the multiell benchmark.

A workload is a list of ops.  An op calls the library through its public
functions only (looked up on the module at call time, so that the traced
run's wrappers are seen) and returns an Outcome; its check compares that
outcome with references computed independently, in a private mpmath
context carrying 20 more digits than the op's own context:

* the catalog row's own closed form (``get_identity(id).rhs``) evaluated
  at ``ctx.boosted(20)``, and
* mpmath's own ``ellipk``, ``gamma`` and ``hyp3f2`` where they apply.

Parameters come from ``random.Random(f"{workload}:{seed}")``, so the same
seed gives the same ops (see JITTER below for how they are drawn).
"""

from __future__ import annotations

import importlib
import math
import random
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable

REF_GUARD = 20  # extra digits carried by every reference value

# The library's documented error types.  An op that raises one of these is
# counted as failed and timed to the raise; anything else is a defect in
# the benchmark and stops the run.
LIBRARY_ERRORS = ("DomainError", "NonConvergenceError", "IntegrandFailureError",
                  "BridgeInconsistencyError")


def load():
    """Import multiell (the package under test)."""
    return importlib.import_module("multiell")


@dataclass(frozen=True)
class Outcome:
    """What one op returned.

    passed    -- the library's own verdict (verify's ``passed``, a residual
                 check's ``passed``; True for plain evaluations)
    values    -- the computed numbers, compared across passes and runs
    estimates -- quadrature error estimates, one per quadrature value
    inputs    -- parameter values the library derived itself (sweep grid)
    """

    passed: bool
    values: tuple
    estimates: tuple = ()
    inputs: tuple = ()


@dataclass(frozen=True)
class Check:
    """Verdict of an outcome against its references.

    digits    -- decimal digits of agreement with the worst reference, or
                 None for residual checks (judged by their tolerance only)
    bounds    -- per quadrature value: true error <= 10 * err_estimate
    correct   -- the output agrees with its references within tolerance
    """

    digits: float | None
    bounds: tuple
    correct: bool


@dataclass(frozen=True)
class Op:
    kind: str               # ops of one kind differ only in their parameters
    label: str
    call: Callable          # (ml, ctx) -> Outcome
    check: Callable         # (ml, ctx, ref_mp, outcome) -> Check
    expect_pass: bool = True
    tiny: bool = False      # part of the tiny subset used by the tests


@dataclass(frozen=True)
class Workload:
    digits: int
    ops: tuple
    warmup: Callable = field(repr=False)  # (ml, ctx) -> None


# ---------------------------------------------------------------- helpers

def agreement(value, ref, cap: int, mp) -> float:
    """Decimal digits to which value agrees with ref (relative; absolute
    for ref = 0), capped at the working precision that produced value."""
    diff = abs(mp.convert(value) - mp.convert(ref))
    if diff == 0:
        return float(cap)
    scale = abs(mp.convert(ref)) or mp.one
    return min(float(cap), float(-mp.log10(diff / scale)))


def _within(value, ref, tol, mp) -> bool:
    """|value - ref| <= tol * max(1, |ref|), the catalog's pass rule."""
    ref = mp.convert(ref)
    return abs(mp.convert(value) - ref) <= tol * max(mp.one, abs(ref))


def _relative_within(value, ref, digits: int, mp) -> bool:
    ref = mp.convert(ref)
    return abs(mp.convert(value) - ref) <= mp.mpf(10) ** (-digits) * abs(ref)


def _num(x: float) -> str:
    return f"{x:.6f}"


def _uniform(rng, lo, hi) -> str:
    return _num(rng.uniform(lo, hi))


def _near(rng, anchor: float) -> str:
    """anchor moved by a seeded relative jitter of at most JITTER."""
    return _num(anchor * (1 + JITTER * rng.uniform(-1, 1)))


def _anchored(rng, lo, hi, k):
    """k seeded values near the midpoints of k equal sub-ranges of [lo, hi]."""
    return [_near(rng, lo + (hi - lo) * (i + 0.5) / k) for i in range(k)]


def _pass_tol(ctx, mp):
    return mp.convert(ctx.pass_tol)


# ----------------------------------------------------- independent closed forms

def _k_squared(mp, a):
    """[K(m)]^2 closed form of the weighted K-kernel integral (mpmath's K)."""
    a = mp.mpf(a)
    if a <= 1:
        return mp.ellipk((1 - mp.sqrt(1 + a * a)) / 2) ** 2
    return mp.ellipk((1 - mp.sqrt(1 + 1 / (a * a))) / 2) ** 2 / a


def _clausen(mp, a):
    """3F2(1/2,1/2,1/2; 1,1; -a^2), the Clausen-type series in closed form."""
    half = mp.mpf(1) / 2
    return mp.hyp3f2(half, half, half, 1, 1, -mp.mpf(a) ** 2)


def _gamma_constant(mp, rid):
    g = mp.gamma
    if rid == "I3":
        return g(mp.mpf(1) / 4) ** 4 / (16 * mp.sqrt(2) * mp.pi)
    if rid == "I4":
        return mp.sqrt(3) * g(mp.mpf(1) / 3) ** 6 / (2 ** (mp.mpf(17) / 3) * mp.pi ** 2)
    prod = g(mp.mpf(1) / 7) * g(mp.mpf(2) / 7) * g(mp.mpf(4) / 7)
    return prod ** 2 / (128 * mp.sqrt(7) * mp.pi ** 2)


def independent_rhs(mp, rid, p):
    """Each catalog row's value computed with mpmath alone."""
    pi, s2 = mp.pi, mp.sqrt(2)
    if rid in ("I1", "I1-ext"):
        return [_k_squared(mp, p["a"])]
    if rid in ("I3", "I4", "I5"):
        return [_gamma_constant(mp, rid)]
    if rid == "I6":
        b, c = mp.mpf(p["b"]), mp.mpf(p["c"])
        return [pi / (2 * mp.sqrt((b + 1) ** 2 + c * c))]
    if rid == "I9":
        c = mp.mpf(p["c"])
        return [pi / (2 * mp.sqrt(1 + c * c))]
    if rid == "I11":
        return [_clausen(mp, p["a"]), 4 / pi ** 2 * _k_squared(mp, p["a"])]
    if rid == "I12":
        return [(2 if int(p["variant"]) == 0 else 4) * s2 / pi]
    if rid == "I13":
        return [pi ** 2 / 4 * _clausen(mp, p["a"]), _k_squared(mp, p["a"])]
    return [{"I2": pi / (4 * s2), "I7": pi / (2 * s2), "I8": pi ** 2 / 4,
             "I10": -pi / (8 * s2)}[rid]]


def library_rhs(ml, ctx, rid, params):
    """The row's own right-hand side at ctx.boosted(REF_GUARD)."""
    hi = ctx.boosted(REF_GUARD)
    rec = ml.get_identity(rid)
    validated = {ps.name: ps.validate(params[ps.name], hi.mp) for ps in rec.params}
    return rec.rhs(hi, validated)


# ------------------------------------------------------------------ op kinds

def verify_op(rid, params, *, tiny=False):
    """verify(rid, params) checked against both reference routes."""
    label = f"verify {rid}" + "".join(f" {k}={v}" for k, v in params.items())

    def call(ml, ctx):
        r = ml.verify(rid, params, ctx)
        est = () if r.err_estimate is None else (r.err_estimate,)
        return Outcome(r.passed, (r.lhs_value,), est)

    def check(ml, ctx, mp, out):
        refs = [mp.convert(library_rhs(ml, ctx, rid, params))]
        refs += independent_rhs(mp, rid, params)
        (lhs,) = out.values
        truth = refs[-1]
        digits = min(agreement(lhs, r, ctx.digits, mp) for r in refs)
        bounds = tuple(abs(mp.convert(lhs) - truth) <= 10 * mp.convert(e)
                       for e in out.estimates)
        correct = all(_within(lhs, r, _pass_tol(ctx, mp), mp) for r in refs)
        return Check(digits, bounds, correct)

    return Op(f"verify {rid}", label, call, check, tiny=tiny)


def _residual_check(ml, ctx, mp, out):
    return Check(None, (), bool(out.passed))


def ode_op(a):
    def call(ml, ctx):
        r = ml.ode_annihilator_residual(a, ctx)
        return Outcome(r.passed, (r.residual, r.scale, r.tolerance))
    return Op("ode_residual", f"ode_residual a={a}", call, _residual_check)


def ode_control_op(a):
    """corrupted=True negative control: must fail by a wide margin."""
    def call(ml, ctx):
        r = ml.ode_annihilator_residual(a, ctx, corrupted=True)
        return Outcome(r.passed, (r.residual, r.scale, r.tolerance))

    def check(ml, ctx, mp, out):
        residual, _, tol = (mp.convert(v) for v in out.values)
        return Check(None, (), (not out.passed) and residual >= 10 ** 6 * tol)

    return Op("ode_control", f"ode_residual corrupted a={a}", call, check, expect_pass=False)


def laplace_op(theta, b, c, *, tiny=False):
    def call(ml, ctx):
        r = ml.laplace_residual(theta, b, c, ctx)
        return Outcome(r.passed, (r.residual, r.scale, r.tolerance))
    return Op("laplace_residual", f"laplace_residual theta={theta} b={b} c={c}", call,
              _residual_check, tiny=tiny)


def gram_op(order):
    def call(ml, ctx):
        gram = ml.orthogonality_gram(order, ctx)
        return Outcome(True, tuple(v for row in gram for v in row))

    def check(ml, ctx, mp, out):
        n = order + 1
        worst = mp.zero
        for i, v in enumerate(out.values):
            exact = mp.one / (2 * (i // n) + 1) if i // n == i % n else mp.zero
            worst = max(worst, abs(mp.convert(v) - exact))
        digits = float(ctx.digits) if worst == 0 else min(float(ctx.digits), float(-mp.log10(worst)))
        # the acceptance suite's Gram tolerance: ten times the quadrature target
        return Check(digits, (), worst <= 10 * mp.convert(ctx.quad_target))

    return Op("orthogonality_gram", f"orthogonality_gram order={order}", call, check)


def sweep_op(lo, hi, steps):
    def call(ml, ctx):
        reports = ml.sweep("I1", "a", lo, hi, steps, ctx)
        return Outcome(all(r.passed for r in reports),
                       tuple(r.lhs_value for r in reports),
                       tuple(r.err_estimate for r in reports),
                       tuple(r.params["a"] for r in reports))

    def check(ml, ctx, mp, out):
        digits, bounds, correct = [], [], True
        for a, lhs, est in zip(out.inputs, out.values, out.estimates):
            refs = [mp.convert(library_rhs(ml, ctx, "I1", {"a": a})), _k_squared(mp, a)]
            digits.append(min(agreement(lhs, r, ctx.digits, mp) for r in refs))
            bounds.append(abs(mp.convert(lhs) - refs[-1]) <= 10 * mp.convert(est))
            correct &= all(_within(lhs, r, _pass_tol(ctx, mp), mp) for r in refs)
        return Check(min(digits), tuple(bounds), correct)

    return Op("sweep", f"sweep I1 a={lo}:{hi}:{steps}", call, check)


# The b = 0 axial integral in its three substitution forms (theta, x and
# Re K); all equal pi / (2 sqrt(1 + c^2)).
CHAIN_FORMS = ("theta", "x", "re_k")


def chain_op(form, c, *, tiny=False):
    def spec(ml, km):
        if form == "theta":
            return ml.IntegralSpec(
                "axial_kernel_b0", (0, c), (0, lambda emp: emp.pi / 2), km.axial_kernel,
                singular_points=(lambda emp: emp.atan(emp.convert(c)),))
        factory = km.axial_x_form_kernel if form == "x" else km.re_k_semi_infinite_kernel
        return ml.IntegralSpec(f"chain_{form}", (c,), (0, ml.INF), factory, singular_points=(1,))

    def call(ml, ctx):
        r = ml.integrate(spec(ml, importlib.import_module("multiell.kernels")), ctx)
        return Outcome(True, (r.value,), (r.err_estimate,))

    def check(ml, ctx, mp, out):
        (value,), (est,) = out.values, out.estimates
        cm = mp.mpf(c)
        ref = mp.pi / (2 * mp.sqrt(1 + cm * cm))
        return Check(agreement(value, ref, ctx.digits, mp),
                     (abs(mp.convert(value) - ref) <= 10 * mp.convert(est),),
                     _within(value, ref, _pass_tol(ctx, mp), mp))

    return Op("chain", f"integrate chain form={form} c={c}", call, check, tiny=tiny)


# gamma at high precision loses digits (ROADMAP item 5: about 200 of 300
# at x = 100).  min_digits reports the loss; the correctness floor for
# gamma-derived values is half the working digits, a gross-error check.
def _gamma_floor(ctx):
    return ctx.digits // 2


def gamma_op(x, *, tiny=False):
    def call(ml, ctx):
        return Outcome(True, (ml.gamma(x, ctx),))

    def check(ml, ctx, mp, out):
        ref = mp.gamma(mp.mpf(x))
        (v,) = out.values
        return Check(agreement(v, ref, ctx.digits, mp), (),
                     _relative_within(v, ref, _gamma_floor(ctx), mp))

    return Op("gamma", f"gamma x={x}", call, check, tiny=tiny)


def rhs_constant_op(rid):
    def call(ml, ctx):
        return Outcome(True, (ml.rhs_constant(rid, ctx),))

    def check(ml, ctx, mp, out):
        ref = _gamma_constant(mp, rid)
        (v,) = out.values
        return Check(agreement(v, ref, ctx.digits, mp), (),
                     _relative_within(v, ref, _gamma_floor(ctx), mp))

    return Op("rhs_constant", f"rhs_constant {rid}", call, check)


def singular_residual_op(r, *, tiny=False):
    def call(ml, ctx):
        res = ml.singular_value_residual(r, ctx)
        return Outcome(res <= ctx.pass_tol, (res,))
    return Op("singular_value_residual", f"singular_value_residual r={r}", call,
              _residual_check, tiny=tiny)


def bridge_op(variant, *, tiny=False):
    """linear_bridge: a* = sqrt(-z), alpha = B, beta = A a* / 2."""
    def call(ml, ctx):
        sid = (ml.SeriesId.RAMANUJAN_2SQRT2, ml.SeriesId.RAMANUJAN_4SQRT2)[variant]
        b = ml.linear_bridge(sid, ctx)
        return Outcome(True, (b.alpha, b.beta, b.a_star))

    def check(ml, ctx, mp, out):
        if variant == 0:
            z, big_a, big_b = -mp.one / 8, mp.mpf(6), mp.one
        else:
            s3 = mp.sqrt(3)
            z, big_a, big_b = -(26 - 15 * s3) / 16, 30 - 6 * s3, 7 - 3 * s3
        a_star = mp.sqrt(-z)
        refs = (big_b, big_a * a_star / 2, a_star)
        return Check(min(agreement(v, r, ctx.digits, mp) for v, r in zip(out.values, refs)), (),
                     all(_within(v, r, _pass_tol(ctx, mp), mp) for v, r in zip(out.values, refs)))

    return Op("linear_bridge", f"linear_bridge variant={variant}", call, check, tiny=tiny)


def ellipk_series_op(m, digits):
    # enough terms for the working precision: m^n < 10^-(digits+10)
    n_terms = int((digits + 10) * math.log(10) / -math.log(float(m))) + 10

    def call(ml, ctx):
        return Outcome(True, (ml.ellipk_series(m, n_terms, ctx),))

    def check(ml, ctx, mp, out):
        ref = mp.ellipk(mp.mpf(m))
        (v,) = out.values
        return Check(agreement(v, ref, ctx.digits, mp), (),
                     _within(v, ref, _pass_tol(ctx, mp), mp))

    return Op("ellipk_series", f"ellipk_series m={m} terms={n_terms}", call, check)


def closed_form_op(a):
    def call(ml, ctx):
        r = ml.ode_annihilator_residual_closed_form(a, ctx)
        return Outcome(r.passed, (r.residual, r.scale, r.tolerance))
    return Op("closed_form", f"ode_residual_closed_form a={a}", call, _residual_check)


# ----------------------------------------------------------------- workloads

# Seeded parameters sit within a relative JITTER of fixed anchors spread
# over each domain.  Uniform draws made the cost of a pass depend on the
# seed -- quadrature levels jump with the parameter, a series' term count
# grows like 1/|ln a| -- which spread ops_per_s between seeds by 10-15%;
# anchored draws keep the domain covered, the cost fixed and the inputs
# different for every seed.
JITTER = 1e-3
DRAWS = 3  # parameter values per catalog row and pass


def _catalog(rng):
    """verify on every catalog row, parameters inside each row's bulk domain."""
    draws = {
        "I1": [{"a": a} for a in _anchored(rng, 0, 0.9, DRAWS)],
        "I1-ext": [{"a": a} for a in _anchored(rng, 1.1, 4, DRAWS)],
        "I6": [{"b": b, "c": c} for b, c in zip(_anchored(rng, 0.5, 2, DRAWS),
                                                 _anchored(rng, 0, 2, DRAWS))],
        "I9": [{"c": c} for c in _anchored(rng, 0.1, 3, DRAWS)],
        "I11": [{"a": a} for a in _anchored(rng, 0, 0.95, DRAWS)],
        "I12": [{"variant": 0}, {"variant": 1}],
        "I13": [{"a": a} for a in _anchored(rng, 0, 0.95, DRAWS)],
    }
    rows = ("I1", "I1-ext", "I2", "I3", "I4", "I5", "I6", "I7", "I8", "I9",
            "I10", "I11", "I12", "I13")
    return [verify_op(rid, p, tiny=rid in ("I8", "I11", "I12"))
            for rid in rows for p in draws.get(rid, [{}])]


def _operators(rng):
    """The selftest mix: annihilator residuals, Gram matrix, sweep, chain."""
    ops = [ode_op(a) for a in _anchored(rng, 0.05, 0.95, 3)]
    ops.append(ode_control_op(_near(rng, 0.5)))
    thetas, bs, cs = (_anchored(rng, lo, hi, 7) for lo, hi in ((0.2, 1.35), (0.3, 2.5), (0.3, 2.5)))
    for theta, b, c in zip(thetas, bs, cs[3:] + cs[:3]):  # c decorrelated from theta, b
        ops.append(laplace_op(theta, b, c, tiny=True))
    ops.append(gram_op(12))
    ops.append(sweep_op(_near(rng, 0.1), _near(rng, 0.8), 9))
    for i, c in enumerate(_anchored(rng, 0.3, 2.5, 2)):
        ops += [chain_op(form, c, tiny=(i == 0 and form == "re_k")) for form in CHAIN_FORMS]
    return ops


def _series(rng):
    """300-digit series, gamma and finite-difference work; no quadrature."""
    # a = 0.95 is the domain's upper end, where the series converges slowest
    ops = [verify_op("I11", {"a": a}) for a in _anchored(rng, 0.05, 0.95, 4) + ["0.95"]]
    ops += [verify_op("I12", {"variant": v}, tiny=True) for v in (0, 1)]
    ops += [rhs_constant_op(rid) for rid in ("I3", "I4", "I5")]
    # x = 100 is the domain's upper end, where gamma's digit loss is largest
    ops += [gamma_op(x, tiny=(i == 0)) for i, x in enumerate(_anchored(rng, 0, 100, 8) + ["100"])]
    ops += [singular_residual_op(r, tiny=(r == 4)) for r in (3, 4, 7)]
    ops += [bridge_op(v, tiny=True) for v in (0, 1)]
    ops += [ellipk_series_op(m, 300) for m in _anchored(rng, 0.1, 0.5, 2)]
    ops += [closed_form_op(a) for a in _anchored(rng, 0.05, 0.95, 3)]
    return ops


# A pass of edges takes half a minute (two level-cap failures), so it runs
# once per run; its cheap endpoint ops run EDGE_REPEATS times per pass so
# that each op's mean latency rests on more than one sample.
EDGE_REPEATS = 5


def _edges(rng):
    """Every closed, finite ParamSpec endpoint, plus the near-singular I6 band.

    The I6 band's ops run to the quadrature's level cap whatever c is, so
    c is drawn from all of [1, 3].
    """
    endpoints = [verify_op("I1", {"a": "0"}),
                 verify_op("I6", {"b": "0", "c": "0"}, tiny=True),
                 verify_op("I6", {"b": "0", "c": _near(rng, 1)}),
                 verify_op("I6", {"b": "0", "c": _near(rng, 2)}),
                 verify_op("I6", {"b": _near(rng, 1), "c": "0"})]
    for a in ("0", "0.95"):
        endpoints += [verify_op("I11", {"a": a}, tiny=True), verify_op("I13", {"a": a})]
    endpoints += [verify_op("I12", {"variant": v}, tiny=True) for v in (0, 1)]
    return endpoints * EDGE_REPEATS + [
        verify_op("I1", {"a": "1"}),
        verify_op("I6", {"b": "0.01", "c": _uniform(rng, 1, 3)})]


def _warm_quadrature(ml, ctx):
    ml.verify("I3", {}, ctx)  # node tables at engine precision, Spouge coefficients


def _warm_series(ml, ctx):
    # Spouge coefficients at both precisions the ops use
    ml.gamma("0.5", ctx)
    ml.rhs_constant("I3", ctx)


# workload -> (working digits, warm-up op run once during set-up)
SETUP = {
    "catalog": (50, _warm_quadrature),
    "operators": (50, _warm_quadrature),
    "series": (300, _warm_series),
    "edges": (50, _warm_quadrature),
}
_BUILDERS = {"catalog": _catalog, "operators": _operators, "series": _series, "edges": _edges}
NAMES = tuple(SETUP)


def build(name: str, seed: int, *, tiny: bool = False) -> Workload:
    """The workload's ops for this seed (the tiny subset if asked)."""
    digits, warmup = SETUP[name]
    ops = _BUILDERS[name](random.Random(f"{name}:{seed}"))
    if tiny:
        ops = [op for op in ops if op.tiny]
    return Workload(digits, _spread_kinds(ops), warmup)


def _spread_kinds(ops):
    """The pass order: each kind's ops spread evenly over the pass.

    A shared machine's speed changes over seconds; ops of one kind run back
    to back would all land in the same fast or slow spell and move a
    latency quantile together.
    """
    counts = Counter(op.kind for op in ops)
    seen = Counter()
    keyed = []
    for i, op in enumerate(ops):
        keyed.append(((seen[op.kind] + 0.5) / counts[op.kind], i, op))
        seen[op.kind] += 1
    return tuple(op for _, _, op in sorted(keyed, key=lambda t: t[:2]))


def reference_context(digits: int):
    """Private mpmath context for references: digits + REF_GUARD."""
    from mpmath.ctx_mp import MPContext  # imported late: setup_s times the mpmath import
    mp = MPContext()
    mp.dps = digits + REF_GUARD
    return mp
