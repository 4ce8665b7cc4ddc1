"""Adaptive double-exponential quadrature for the identity catalog.

Finite panels use the tanh-sinh transformation x = c + r tanh((pi/2) sinh t),
semi-infinite panels the exp-sinh transformation x = a + exp((pi/2) sinh t).
The trapezoid step starts at h = 1 and halves per level, reusing previous
evaluations.  A panel stops at the first level whose change from the level
before is within the target or, from level 3 on, whose error extrapolated
from its last two changes (see _extrapolated) is within both the target and
10^-(digits+1) of its largest value; else at MAX_LEVEL, never before
MIN_LEVEL (the engine's own bounds).  No panel estimate falls below the
noise floor 10^-(digits+10) max(1, |value|) (see _noise_floor).  Intervals
are split at declared interior singular points so that singularities sit at
panel ends, where the double-exponential decay of the weights absorbs them.

One panel driver serves both maps.  A two-entry transform table gives each
map's nodes, the panel's length scale and one node's abscissas and weights.
Node tables are cached per (map, engine precision, level), and each
level's points on a panel, with node-only values memoised on them (K,
1 - x), per panel too, for the most recently used POINT_CAP points.

Integrand values: an integrand returns one real mpf, or a Fixed, real
components in fixed point (the fdim integrands of Johnson's cubature,
SciPy's quad_vec), so that integrals sharing costly work at each node --
K(2 sqrt(x(1-x))) under several weights, P_0..P_n(2x-1) under every
product -- make one pass over one node set; a complex integral is two real
components.  A level has converged once every component's change is
within target, or once the error extrapolated from the largest changes
over components is, and the tail stop needs every component of both terms
of a node to be negligible, so the node set is the one the hardest
component needs alone.  The result holds one value and one estimate per component.

Endpoint complements (Bailey, Jeyabalan and Li, Exp. Math. 14, 2005; Boost's
tanh_sinh): every integrand is called as f(x, xc), where the Gap xc holds
e, the panel end nearer to x, and the signed distance e - x, exactly.
tanh-sinh tables store s = 1 - tanh(u) = 2e^(-2u)/(1 + e^(-2u)), never
formed by subtraction; a node pair is x = lo + r s and x = hi - r s, with
gaps -r s and r s; exp-sinh gaps are -e^u and -e^-u, to the finite end.
The gap is exact where x, rounded to engine precision, no longer resolves
its distance to the end; an integrand singular at p takes p - x from
`gap_to`, which reads the gap where p is the end.  An integrand that
returns inf or nan, or anything but an mpf or a Fixed, raises
IntegrandFailureError.

Precision bookkeeping: abscissas and integrands are evaluated in an engine
context carrying digits + GUARD decimal digits.  Node tables reach down to
weights of 10^-2(digits+10), so that an x^(-1/2) endpoint, whose terms w f
decay like sqrt(w), still finds nodes where they are negligible.  Each
level's node loop stops at the first node with t > 3 at which both of its
terms contribute below 10^-(digits+10) to the panel, in every component.
This resolves logarithmic (K-kernel) and x^(-1/2) endpoint singularities
to quad_target; I1 at a = 1, where the weight becomes (4(1-x))^(-1/2),
converges.

Fixed-point accumulation: an mpf value is read as the one-component Fixed
of its signed mantissa and exponent, and a panel keeps one Python int per
component, the sum of w f over every node so far scaled by 2^wp, wp =
fraction_bits(mp) = engine precision + 20 bits.  Node tables hold each
weight as its exact mpf (mantissa, exponent), and each term, the product
of the two mantissas shifted once into place, is floored once, by less
than 2^-wp; N terms move a panel's value by at most h scale N 2^-wp.  That
is absolute, and far below the noise floor 10^-(digits+10) under every
panel estimate.  The weights are
never rounded to fixed point: tail weights reach 10^-2(digits+10) and an
x^(-1/2) endpoint gives integrand values near the inverse square root of
that, so a weight rounded to 2^-wp would lose every digit of those terms.

Semi-infinite integrands must decay at least like x^(-2); every catalog
form decays like x^(-3).
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from typing import Callable, NamedTuple

from mpmath.libmp import fnone, fone, mpf_add, mpf_mul, mpf_neg, mpf_sub

from .errors import DomainError, IntegrandFailureError, NonConvergenceError
from .precision import PrecisionContext

MAX_LEVEL = 12
MIN_LEVEL = 2
GUARD = 20  # decimal digits the engine carries beyond the working precision
INF = math.inf  # spell the upper endpoint of semi-infinite intervals
# twice every catalog row's panels at 300 digits; a point, x an mpf, takes
# 500-1,140 B (README), so a full cache holds 16-37 MB
POINT_CAP = 32_768
EXTRAPOLATION_MARGIN = 5  # decimal digits an extrapolated panel error is inflated by

_node_cache: dict = {}
_point_cache: dict = {}  # key -> (points, tail, count), least recently used first
_cache_lock = threading.Lock()


@dataclass(frozen=True)
class IntegralSpec:
    """One integrand family instance: id, parameters, interval, singularities.

    interval entries and singular_points may be numbers or callables taking
    the engine's mpmath context (so that values like pi/2 or atan(c) are
    produced at engine precision).  ``factory(mp, *params)`` must return the
    integrand f(x, xc), evaluated inside context mp: x is the abscissa and
    the Gap xc names e, the nearer end of its panel, and holds e - x
    exactly.  An integrand singular at p takes p - x from ``gap_to(mp, p)``
    rather than subtracting the rounded x: nodes lie so close to the ends
    that x can round onto one.

    f returns one real mpf, or a Fixed; anything else (an mpc, a tuple, a
    Python int) raises IntegrandFailureError.  Fixed(mantissas, exp) is a
    vector of real components in fixed point: component j is mantissas[j]
    2^exp, the mantissas signed Python ints sharing one binary exponent.
    Its contract:

    * the number of mantissas is the number of components and must not
      change between calls; exp may change from call to call;
    * exp <= -fraction_bits(mp), and each component is correct to a few
      units of 2^-fraction_bits(mp) times max(1, |component|); on the
      tanh-sinh panels of a finite interval, whose weights are below 2, a
      term w f then errs by a few units of the panel sum plus that share
      of |w f|, and the panel rounds it once, as it does for an mpf;
    * exp-sinh weights grow without bound, so an integrand over (lo, inf)
      returns mpf;
    * an integrand whose magnitudes span many binades (a power of a
      quantity that tends to 0 at a panel end) chooses its working scale
      per call, so that no intermediate value rounds to 0;
    * a ZeroDivisionError or ValueError raised by the integer arithmetic
      surfaces as IntegrandFailureError, like any failure of f.

    The integrand's mass must lie where the nodes can see it: within the
    exp-sinh node range of a semi-infinite panel, and not in a sliver of a
    long finite one.  Otherwise integrate may converge falsely (see there).
    """

    integrand_id: str
    params: tuple
    interval: tuple
    factory: Callable
    singular_points: tuple = ()


@dataclass(frozen=True)
class QuadResult:
    """Quadrature value with diagnostics.

    err_estimate sums each panel's estimate: its last level-to-level change,
    or, where it stopped on an extrapolated error, that error inflated by
    10^EXTRAPOLATION_MARGIN, either floored at the panel's noise floor;
    panels counts subintervals after splitting; levels is the deepest
    refinement level used; evaluations counts integrand calls across all
    panels.  value and err_estimate are mpf when the integrand returns an
    mpf, and tuples of mpf, one entry per component, exactly when it
    returns a Fixed, at engine precision, ctx.boosted(GUARD), unrounded.
    """

    value: object
    err_estimate: object
    panels: int
    levels: int
    evaluations: int


class Fixed(NamedTuple):
    """A fixed-point integrand value: component j is mantissas[j] 2^exp."""

    mantissas: tuple
    exp: int


def fraction_bits(mp) -> int:
    """Bits below the binary point of the panel sum at mp's precision.

    The panel sums every term w f as an int scaled by 2^fraction_bits(mp);
    a Fixed integrand carries at least this many fraction bits.
    """
    return mp.prec + 20


def _resolve(v, mp):
    return v(mp) if callable(v) else mp.mpf(v)


def _man_exp(w):
    """A positive mpf's exact (mantissa, exponent): w = mantissa 2^exponent."""
    _, man, exp, _ = w._mpf_
    return man, exp


class Gap:
    """An integrand's xc: e, x's nearer panel end, and e - x, as exact mpf tuples.

    xc.end is e and xc._mpf_ is e - x, so mp.convert(xc) is the gap as an
    mpf.  Gap(None, None), for a point that no panel placed, names no end:
    gap_to then subtracts.  xc.memo holds node-only values at its panel's
    engine precision: None on a panel's point until a first store, then a
    flat (key, value, ...) tuple; a pointwise Gap keeps memo=False.
    """

    __slots__ = ("end", "_mpf_", "memo")

    def __init__(self, end, gap, memo=False):
        self.end = end
        self._mpf_ = gap
        self.memo = memo


def gap_to(mp, p):
    """(x, xc) -> p - x as an mpf tuple: xc's exact gap where p is xc.end (an
    exact compare), elsewhere x subtracted from p once at mp's precision."""
    p, prec = mp.convert(p)._mpf_, mp.prec

    def gap(x, xc):
        return xc._mpf_ if xc.end == p else mpf_sub(p, x._mpf_, prec, "n")
    return gap


def _ts_node(mp, half_pi, t):
    e = mp.exp(-2 * half_pi * mp.sinh(t))  # e^(-2u), u = (pi/2) sinh t
    d = 1 + e
    w = 4 * half_pi * mp.cosh(t) * e / (d * d)  # (pi/2) cosh t / cosh(u)^2
    return ((2 * e / d)._mpf_, *_man_exp(w)), w  # 1 - tanh u, without cancellation


def _ts_points(node, lo, hi, rad):
    s, wm, we = node  # x = lo + rad s and, for t > 0, its mirror x = hi - rad s
    mp, lo, hi = rad.context, lo._mpf_, hi._mpf_
    gap = mpf_mul(rad._mpf_, s, mp.prec, "n")
    left = (wm, we, mp.make_mpf(mpf_add(lo, gap, mp.prec, "n")), Gap(lo, mpf_neg(gap), None))
    if s == fone:
        return (left,)
    return (left, (wm, we, mp.make_mpf(mpf_sub(hi, gap, mp.prec, "n")), Gap(hi, gap, None)))


def _es_node(mp, half_pi, t):
    eu = mp.exp(half_pi * mp.sinh(t))
    ieu, dw = 1 / eu, half_pi * mp.cosh(t)
    return ((-eu)._mpf_, (-ieu)._mpf_, *_man_exp(dw * eu), *_man_exp(dw * ieu)), dw / eu


def _es_points(node, lo, _hi, _scale):
    gap, igap, wm, we, iwm, iwe = node  # x = lo - gap and, for t > 0, its mirror x = lo - igap
    mp, lo = lo.context, lo._mpf_
    first = (wm, we, mp.make_mpf(mpf_sub(lo, gap, mp.prec, "n")), Gap(lo, gap, None))
    if gap == fnone:
        return (first,)
    return (first, (iwm, iwe, mp.make_mpf(mpf_sub(lo, igap, mp.prec, "n")), Gap(lo, igap, None)))


# kind -> (node, scale, points): node(mp, half_pi, t) is (node, weight), and a
# table ends once weight < the cutoff (and t > 3); scale(lo, hi) is the panel's
# length scale; points(node, lo, hi, scale) are the (weight mantissa, weight
# exponent, x, xc) of a node and of its mirror, rounded as mpmath's operators
# round.  A level's sum of weight * f(x, xc) is multiplied by h * scale.
_TRANSFORMS = {
    "tanh-sinh": (_ts_node, lambda lo, hi: (hi - lo) / 2, _ts_points),
    "exp-sinh": (_es_node, lambda lo, hi: 1, _es_points),
}


def _negligible(mp):
    """10^-(digits+10) in the engine context mp (digits + GUARD digits): terms
    below this share of a panel drop, and node tables end at its square."""
    return mp.mpf(10) ** (GUARD - 10 - mp.dps)


def _level_nodes(mp, kind: str, level: int):
    """Nodes for t = k h >= 0 at one refinement level of one transform (cached).

    Level 0 takes every k >= 0; deeper levels take only odd k, the nodes
    the previous levels lack.  Returns (nodes, tail): nodes from index tail
    on have t > 3.
    """
    key = (kind, mp.dps, level)
    with _cache_lock:
        table = _node_cache.get(key)
    if table is not None:
        return table
    node_at = _TRANSFORMS[kind][0]
    cutoff = _negligible(mp) ** 2
    h = mp.mpf(2) ** (-level)
    half_pi = mp.pi / 2
    nodes = []
    tail = None
    k = 1 if level > 0 else 0
    step = 2 if level > 0 else 1
    while True:
        t = k * h
        if t > 12:
            raise NonConvergenceError(f"{kind} node generation ran away")
        node, weight = node_at(mp, half_pi, t)
        if t > 3 and tail is None:
            tail = len(nodes)
        if weight < cutoff and t > 3:
            break
        nodes.append(node)
        k += step
    table = (nodes, tail)
    with _cache_lock:
        _node_cache[key] = table
    return table


def _level_points(mp, kind: str, level: int, lo, hi, scale):
    """(points, tail, count) of one level on (lo, hi), built once and cached:
    points[i] is node i's (weight mantissa, weight exponent, x, xc), then
    its mirror's, in one flat tuple.  A level is published whole;
    past POINT_CAP points, the least recently used levels are evicted."""
    key = (kind, mp.prec, level, lo._mpf_, hi._mpf_)
    with _cache_lock:
        entry = _point_cache.pop(key, None)
        if entry is not None:
            _point_cache[key] = entry  # now the most recently used
            return entry
    nodes, tail = _level_nodes(mp, kind, level)
    points = _TRANSFORMS[kind][2]
    flat = [sum(points(node, lo, hi, scale), ()) for node in nodes]
    built = (flat, tail, sum(map(len, flat)) // 4)
    with _cache_lock:
        entry = _point_cache.setdefault(key, built)
        while sum(count for _, _, count in _point_cache.values()) > POINT_CAP:
            del _point_cache[next(iter(_point_cache))]
    return entry


def _failure(what, x, xc):
    """IntegrandFailureError for an integrand that what at the point (x, xc)."""
    at_end = (", which rounds onto its panel end; an integrand singular there must"
              " take its distance to the end from xc") if x._mpf_ == xc.end else ""
    return IntegrandFailureError(f"integrand {what} at x = {x}{at_end}")


def _noise_floor(negligible, total):
    """negligible max(1, largest |total|), below which no panel estimate falls.

    The node loop drops terms below negligible, and the integrand's own
    rounding is about that share of the value.
    """
    return negligible * max(1, max(map(abs, total)))


def _extrapolated(mp, changes, total, negligible, target):
    """The last level's extrapolated error E, or None where it may not stop the panel.

    changes holds each level's largest change over components.  Tanh-sinh
    converges quadratically, so with D1 and D2 the logarithms of the last
    two changes the last level errs by about 10^max(D1^2/D2, 2 D1)
    (Borwein, Bailey and Girgensohn, Experimentation in Mathematics, 2004;
    mpmath's QuadratureRule.estimate_error).  D1 and D2 are read as log2
    from the changes' binary exponents, and E is that error times
    10^EXTRAPOLATION_MARGIN, rounded up to a power of 2, and never below
    _noise_floor.  E is returned only if the last three changes are nonzero
    and strictly shrinking and E is within both target and 10^-(digits+1)
    = 10^9 negligible times the largest |total|.
    """
    if len(changes) < 3 or not changes[-3] > changes[-2] > changes[-1] > 0:
        return None
    d1, d2 = (c._mpf_[2] + c._mpf_[3] for c in changes[:-3:-1])  # log2 |change|, rounded up
    if d2 >= 0:
        return None
    log2_e = max(d1 * d1 / d2, 2 * d1) + EXTRAPOLATION_MARGIN * math.log2(10)
    estimate = max(mp.ldexp(1, math.ceil(log2_e)), _noise_floor(negligible, total))
    if estimate <= target and estimate <= negligible * 10 ** 9 * max(map(abs, total)):
        return estimate
    return None


def _panel(f, mp, kind, lo, hi, target, max_level, min_level):
    """Refine one panel level by level, stopping at a level in [min_level, max_level].

    Returns (values, error estimates, level, calls, vector): one value and
    one estimate per component of f, the level reached, the integrand calls
    made and whether f returned a Fixed.  Level L's value is each
    component's int sum times 2^-(wp + L) scale.  An estimate is the
    extrapolated error E, or else the component's last change; either is
    at least _noise_floor of the values.
    """
    scale = _TRANSFORMS[kind][1](lo, hi)
    negligible = _negligible(mp)
    wp = fraction_bits(mp)
    # a term w f is negligible once scale |w f| is
    limit = int(mp.ldexp(negligible / scale, wp))
    sums = err = None
    changes = []  # each level's largest change over components
    calls = 0
    vector = False
    for level in range(max_level + 1):
        nodes, tail, _ = _level_points(mp, kind, level, lo, hi, scale)
        for i, node in enumerate(nodes):
            small = i >= tail
            point = iter(node)
            for wm, we, x, xc in zip(point, point, point, point):
                try:
                    v = f(x, xc)
                except (ArithmeticError, ValueError, ZeroDivisionError) as exc:
                    raise _failure(f"raised {exc!r}", x, xc) from exc
                calls += 1
                vector = type(v) is Fixed
                if vector:
                    mantissas, exp = v
                else:
                    try:
                        sign, man, exp, _ = v._mpf_
                    except AttributeError:
                        raise _failure(f"returned {v!r} (not an mpf or a Fixed)", x, xc) from None
                    if not man and exp:  # mpmath's inf, -inf and nan: mantissa 0, exponent not 0
                        raise _failure(f"returned {v}", x, xc)
                    mantissas = (-man if sign else man,)
                if sums is None:
                    sums = [0] * len(mantissas)
                e = exp + we + wp
                for j, m in enumerate(mantissas):
                    t = m * wm << e if e >= 0 else m * wm >> -e
                    sums[j] += t
                    if small and not -limit < t < limit:
                        small = False
            if small:
                break
        unit = -wp - level  # the sums times h = 2^-level, as (mantissa, exponent)
        total = [mp.mpf((s, unit)) * scale for s in sums]
        if level >= 1:
            err = [abs(t - p) for t, p in zip(total, prev)]
            changes.append(max(err))
            if level >= min_level:
                if changes[-1] <= target:
                    break
                estimate = _extrapolated(mp, changes, total, negligible, target)
                if estimate is not None:
                    return total, [estimate] * len(total), level, calls, vector
        prev = total
    floor = _noise_floor(negligible, total)
    return total, err and [max(e, floor) for e in err], level, calls, vector


def integrate(spec: IntegralSpec, ctx: PrecisionContext) -> QuadResult:
    """Integrate spec to ctx.quad_target absolute error in every component.

    Unlike every other public function, integrate does not round its result
    to ctx.digits (see QuadResult).  Each panel, given an equal share of
    quad_target, stops at the first level at or past MIN_LEVEL whose
    largest change from the level before is within its share or, from
    level 3 on, whose extrapolated error E is within both its share and
    10^-(digits+1) of its largest value; E is then its estimate (see
    _extrapolated).  Raises NonConvergenceError if any panel reaches
    MAX_LEVEL with an error estimate above both target and its noise
    floor, and IntegrandFailureError if the integrand raises or returns a
    non-finite value.

    Convergence is judged from the nodes alone, so an integrand whose mass
    lies far beyond the exp-sinh node range, or in a sliver of a long
    tanh-sinh panel far from its middle, can converge falsely: a wrong
    value with a small estimate, which integrate does not detect.  I9's
    Re K integrand at c = 1e-100 peaks near x = 1/c and reads 0.  At
    c = 1e20 and 30 digits, it and the axial t form at b = 0.5 both err
    by 1.5 quad_target, with an estimate 26 times smaller.
    """
    mp = ctx.boosted(GUARD).mp

    lo = _resolve(spec.interval[0], mp)
    hi = _resolve(spec.interval[1], mp)
    if mp.isinf(lo):
        raise DomainError("lower endpoint must be finite")
    splits = sorted(_resolve(s, mp) for s in spec.singular_points)
    if not all(lo < s < hi for s in splits):
        raise DomainError("singular points must lie strictly inside the interval")
    edges = [lo, *splits, hi]
    if not all(a < b for a, b in zip(edges, edges[1:])):
        raise DomainError(f"degenerate interval for {spec.integrand_id}")

    f = spec.factory(mp, *(p if isinstance(p, int) else mp.convert(p) for p in spec.params))
    npanels = len(edges) - 1
    target = mp.convert(ctx.quad_target) / npanels

    values = errs = None
    deepest = evaluations = 0
    for a, b in zip(edges, edges[1:]):
        kind = "exp-sinh" if mp.isinf(b) else "tanh-sinh"
        v, e, lev, calls, vector = _panel(f, mp, kind, a, b, target, MAX_LEVEL, MIN_LEVEL)
        if e is None or max(e) > max(target, _noise_floor(_negligible(mp), v)):
            raise NonConvergenceError(
                f"{spec.integrand_id}: panel ({a}, {b}) stopped at level {lev} "
                f"with estimate {mp.nstr(max(e), 5) if e is not None else 'n/a'} above target")
        values = v if values is None else [x + y for x, y in zip(values, v)]
        errs = e if errs is None else [x + y for x, y in zip(errs, e)]
        deepest = max(deepest, lev)
        evaluations += calls

    return QuadResult(
        value=tuple(values) if vector else values[0],
        err_estimate=tuple(errs) if vector else errs[0],
        panels=npanels,
        levels=deepest,
        evaluations=evaluations,
    )
