"""Adaptive double-exponential quadrature for the identity catalog.

Finite panels use the tanh-sinh transformation x = c + r tanh((pi/2) sinh t),
semi-infinite panels the exp-sinh transformation x = a + exp((pi/2) sinh t).
The trapezoid step starts at h = 1 and halves per level, reusing previous
evaluations, until the level-to-level change drops below the target or the
level cap is hit.  Intervals are split at declared interior singular points
so that singularities sit at panel ends, where the double-exponential decay
of the weights absorbs them.

One panel driver serves both maps.  A two-entry transform table gives each
map's nodes, the panel frame they are scaled into and one node's
contribution; node tables are built once per (map, engine precision, level,
cutoff) and cached.

Precision bookkeeping: abscissas and integrands are evaluated in an engine
context carrying 2*digits + 40 decimal digits, and node generation stops
once weights fall below 10^-(digits+10).  The factor two is not luxury --
the catalog's kernels contain (x - 1/2)^2-style terms that square a node's
distance to the singular abscissa, so the engine needs twice the cutoff
exponent plus guard digits for those terms to stay representable.  This
covers logarithmic (K-kernel) singularities fully at quad_target.

Known defect: because node generation stops on the weight alone, an
algebraic x^(-1/2) endpoint leaves a dropped tail of about the square root
of the cutoff, far above quad_target, so such a panel runs to the level cap
and raises NonConvergenceError.  I1 at a = 1, where the weight becomes
(4(1-x))^(-1/2), is inside the row's declared domain and fails this way.

Semi-infinite integrands must decay at least like x^(-2); every catalog
form decays like x^(-3).
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from typing import Callable

from .errors import DomainError, IntegrandFailureError, NonConvergenceError
from .precision import PrecisionContext

MAX_LEVEL = 12
INF = math.inf  # spell the upper endpoint of semi-infinite intervals

_node_cache: dict = {}
_cache_lock = threading.Lock()


@dataclass(frozen=True)
class IntegralSpec:
    """One integrand family instance: id, parameters, interval, singularities.

    interval entries and singular_points may be numbers or callables taking
    the engine's mpmath context (so that values like pi/2 or atan(c) are
    produced at engine precision).  ``factory(mp, *params)`` must return the
    integrand as a function of the abscissa, evaluated inside context mp.
    """

    integrand_id: str
    params: tuple
    interval: tuple
    factory: Callable
    singular_points: tuple = ()


@dataclass(frozen=True)
class QuadResult:
    """Quadrature value with diagnostics.

    err_estimate is the last level-to-level change (a deliberate
    overestimate once converged); panels counts subintervals after
    splitting; levels is the deepest refinement level used.
    """

    value: object
    err_estimate: object
    panels: int
    levels: int


def _resolve(v, mp):
    return v(mp) if callable(v) else mp.mpf(v)


def _ts_node(mp, half_pi, t):
    u = half_pi * mp.sinh(t)
    w = half_pi * mp.cosh(t) / mp.cosh(u) ** 2
    return (mp.tanh(u), w), w


def _ts_term(f, node, ctr, rad):
    y, w = node
    if y == 0:
        return w * _call(f, ctr)
    return w * (_call(f, ctr + rad * y) + _call(f, ctr - rad * y))


def _es_node(mp, half_pi, t):
    eu = mp.exp(half_pi * mp.sinh(t))
    coshfac = half_pi * mp.cosh(t)
    return (eu, coshfac), coshfac / eu


def _es_term(f, node, lo, _scale):
    eu, coshfac = node  # x = lo + eu and, for t > 0, its mirror x = lo + 1/eu
    if eu == 1:
        return coshfac * _call(f, lo + 1)
    return coshfac * (eu * _call(f, lo + eu) + _call(f, lo + 1 / eu) / eu)


# kind -> (node, frame, term): node(mp, half_pi, t) is (node, weight), and
# node generation stops once weight < cutoff (and t > 3); frame(lo, hi) is a
# panel's (origin, scale); term(f, node, origin, scale) is a node's weighted
# integrand plus its mirror's.  A level's sum is multiplied by h * scale.
_TRANSFORMS = {
    "tanh-sinh": (_ts_node, lambda lo, hi: ((lo + hi) / 2, (hi - lo) / 2), _ts_term),
    "exp-sinh": (_es_node, lambda lo, hi: (lo, 1), _es_term),
}


def _level_nodes(mp, kind: str, level: int, cutoff):
    """Nodes for t = k h >= 0 at one refinement level of one transform (cached).

    Level 0 takes every k >= 0; deeper levels take only odd k, the nodes
    the previous levels lack.
    """
    key = (kind, mp.dps, level, cutoff)
    with _cache_lock:
        nodes = _node_cache.get(key)
    if nodes is not None:
        return nodes
    node_at = _TRANSFORMS[kind][0]
    h = mp.mpf(2) ** (-level)
    half_pi = mp.pi / 2
    nodes = []
    k = 1 if level > 0 else 0
    step = 2 if level > 0 else 1
    while True:
        t = k * h
        if t > 12:
            raise NonConvergenceError(f"{kind} node generation ran away")
        node, weight = node_at(mp, half_pi, t)
        if weight < cutoff and t > 3:
            break
        nodes.append(node)
        k += step
    with _cache_lock:
        _node_cache[key] = nodes
    return nodes


def _call(f, x):
    try:
        return f(x)
    except (ArithmeticError, ValueError, ZeroDivisionError) as exc:
        raise IntegrandFailureError(f"integrand raised at x = {x}: {exc}") from exc


def _panel(f, mp, kind, lo, hi, cutoff, target, max_level, min_level):
    """Refine one panel level by level; returns (value, error estimate, level)."""
    _, frame, term = _TRANSFORMS[kind]
    origin, scale = frame(lo, hi)
    prev = None
    total = None
    err = None
    for level in range(max_level + 1):
        h = mp.mpf(2) ** (-level)
        s = mp.mpf(0)
        for node in _level_nodes(mp, kind, level, cutoff):
            s += term(f, node, origin, scale)
        new = s * h * scale
        total = new if level == 0 else total / 2 + new
        if level >= 1:
            err = abs(total - prev)
            if level >= min_level and err <= target:
                return total, err, level
        prev = total
    return total, err, max_level


def integrate(spec: IntegralSpec, ctx: PrecisionContext, *, max_level: int = MAX_LEVEL,
              min_level: int = 2) -> QuadResult:
    """Integrate spec to ctx.quad_target absolute error.

    Raises NonConvergenceError if any panel hits the level cap with its
    error estimate above target, and IntegrandFailureError if the integrand
    raises at a point not declared singular.
    """
    engine = ctx.boosted(ctx.digits + 40)
    mp = engine.mp
    cutoff = mp.mpf(10) ** (-(ctx.digits + 10))

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

    value = mp.mpf(0)
    err_total = mp.mpf(0)
    deepest = 0
    for a, b in zip(edges, edges[1:]):
        kind = "exp-sinh" if mp.isinf(b) else "tanh-sinh"
        v, e, lev = _panel(f, mp, kind, a, b, cutoff, target, max_level, min_level)
        if e is None or e > target:
            raise NonConvergenceError(
                f"{spec.integrand_id}: panel ({a}, {b}) stopped at level {lev} "
                f"with estimate {mp.nstr(e, 5) if e is not None else 'n/a'} above target")
        value = value + v
        err_total = err_total + e
        deepest = max(deepest, lev)

    # the returned value is rounded to ctx.digits, so the estimate can
    # never honestly sit below that representation error
    floor = (1 + abs(value)) * mp.mpf(10) ** (-ctx.digits)
    return QuadResult(
        value=ctx.reduce(value),
        err_estimate=ctx.reduce(max(err_total, floor)),
        panels=npanels,
        levels=deepest,
    )

