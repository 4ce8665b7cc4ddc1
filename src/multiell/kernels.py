"""Integrand factories for the identity catalog and the operator checks.

Each factory takes the quadrature engine's mpmath context plus the
identity's parameters and returns the integrand f(x, xc) of the abscissa x
and its signed distance xc to the nearer panel end (see quadrature).
Kernels are transcribed as printed in the catalog's closed forms, so that
shared code lives below the integrand layer (K itself, square roots) and
nothing can drift in transcription, with two rewrites that keep the engine
at digits + GUARD:

* K's one input is its complementary modulus kc = sqrt(1 - m); each kernel
  forms kc without cancellation and never forms the parameter m:
  2|1/2 - x| for K(2 sqrt(x(1-x))); sqrt((1-x)(1+x)) and
  sqrt((x-1)(x+1))/x for Re K at modulus x; sqrt((b^2+(c-t)^2)/den2)
  for the axial kernel in t = tan th; |1-x|/(1+x) for K(2 sqrt(x)/(1+x)).
* Next to a panel end at a kernel's singular abscissa, the distance to it
  (1/2 - x, 1 - x, c - t) is read from xc through
  quadrature.offset, exact where the rounded x is not; the generating
  weight is formed as (1-a)^2 + 4a(1-x), which equals 1 - 2(2x-1)a + a^2.

The axial kernel: axial_t_kernel is its one body, the integrand that I6
integrates over (0, inf) split at t = c and that the Laplace check
differentiates in (b, c); axial_kernel is only its Jacobian adapter to
th = atan t, kept for the benchmark's theta substitution chain.

K columns: the K factor of the kernels K(2 sqrt(x(1-x))), Re K(x) and
K(2 sqrt(x)/(1+x)) depends on the node alone, not on the integral's
parameters, and the catalog integrates each of them again and again over
the same nodes (ten rows, the ODE grid and the sweep share the first; I9
and the substitution chain share the other two at every c).  So each of
the three keeps one table per engine precision, keyed on the node
(x, xc), for the life of the process: a node's K is computed once, by
the first integral that reaches it, and every later integral at that
precision reads it, skipping both the kc arithmetic and the AGM.  K is a
pure function of (x, xc) at a fixed precision, so a value read from the
table is bit-identical to one computed afresh.  A table holds one entry
per distinct node, at most nodes x intervals integrated at its
precision: a few thousand entries for the catalog at 50 digits.  The
axial kernel's K depends on (b, c) and is not tabulated.

``weighted_kernel`` is a vector integrand (see quadrature): it evaluates K
and 1 - x once per node and returns K times the generating weight's
a-derivatives 0..order at each of several a, so that an ODE check (four
derivatives at one a) or a sweep over a (one weight at each a) is one
integral.  Powers u^(k/2) are formed from sqrt(u), and constants are
hoisted out of the integrands into their factories.

The ``*_spec`` builders at the end pair a factory with its interval and
singular points for the integrals that more than one module runs.  They
look IntegralSpec up by name at call time, so an instrumented replacement
of that name reaches every spec they build.
"""

from __future__ import annotations

import threading

from .elliptic import ellipk_real_mp, re_k_modulus_mp
from .quadrature import INF, IntegralSpec, offset

_k_tables: dict = {}  # (column, mp.prec) -> {node: K}
_tables_lock = threading.Lock()


def _k_column(mp, column: str, k_at):
    """The node function (x, xc) -> K of one K column, read from its table.

    The table is the column's at mp's precision, shared by every integrand
    that reads that column; k_at(x, xc) computes K on a miss.  Nodes are
    keyed on the exact values of x and xc.  Concurrent integrals may both
    miss on a node and store the same value.
    """
    with _tables_lock:
        table = _k_tables.setdefault((column, mp.prec), {})

    def k(x, xc):
        node = (x._mpf_, xc._mpf_)
        v = table.get(node)
        if v is None:
            v = table[node] = k_at(x, xc)
        return v
    return k


def k_of_x(mp):
    """K(2 sqrt(x(1-x))) as a function on (0,1); singular at x = 1/2.

    Values come from the column's table at mp's precision, keyed on the
    node (x, xc) and kept for the life of the process; it holds one entry
    per distinct node, at most nodes x intervals integrated at that
    precision (see the module docstring).  Misses are memoised on kc = 2|1/2 - x| for the life of
    the returned function (so per integral): the panels (0, 1/2) and
    (1/2, 1) place mirror-image nodes, and many of them share an exact kc.
    """
    to_half = offset(mp, mp.mpf(0.5))
    memo = {}

    def k_at(x, xc):
        kc = 2 * abs(to_half(x, xc))
        k = memo.get(kc)
        if k is None:
            k = memo[kc] = ellipk_real_mp(mp, kc)
        return k
    return _k_column(mp, "K(2 sqrt(x(1-x)))", k_at)


def generating_weight(mp, a, order: int = 0):
    """(g, dg/da, ..., d^order g/da^order) of g = (1 - 2(2x-1)a + a^2)^(-1/2).

    Returns a function of (x, 1 - x): the caller supplies 1 - x, read from
    a node's xc through offset(mp, 1), once for every weight at that node.
    order is 0..3.  The closed-form algebraic derivatives share u, du/da
    and sqrt(u); they are cross-checked against finite differences of g in
    the test suite before use.
    """
    if order not in (0, 1, 2, 3):
        raise ValueError(f"order must be 0..3, got {order}")
    shift = (1 - a) ** 2
    four_a = 4 * a
    fifteen_eighths = mp.mpf(15) / 8
    nine_halves = mp.mpf(9) / 2

    def f(x, one_minus_x):
        u = shift + four_a * one_minus_x  # 1 - 2(2x-1)a + a^2
        g = 1 / mp.sqrt(u)
        if order == 0:
            return (g,)
        ua = 2 * (a - (2 * x - 1))  # du/da
        g3 = g / u  # u^(-3/2)
        d1 = -ua * g3 / 2
        if order == 1:
            return (g, d1)
        g5 = g3 / u  # u^(-5/2)
        d2 = 3 * ua * ua * g5 / 4 - g3
        if order == 2:
            return (g, d1, d2)
        d3 = (nine_halves - fifteen_eighths * ua * ua / u) * ua * g5
        return (g, d1, d2, d3)
    return f


def weighted_kernel(mp, order: int, *a_values):
    """K(2 sqrt(x(1-x))) times the generating weight's a-derivatives 0..order.

    One component per (a, derivative) pair, a-major: params (order, a1, ...,
    an) give n (order + 1) components, all sharing one K value and one
    1 - x per node.
    """
    k = k_of_x(mp)
    to_one = offset(mp, 1)
    weights = [generating_weight(mp, a, order) for a in a_values]

    def f(x, xc):
        kx = k(x, xc)
        one_minus_x = to_one(x, xc)
        return tuple(kx * w for g in weights for w in g(x, one_minus_x))
    return f


def ratio_kernel_2sqrt2(mp):
    """K(2 sqrt(x(1-x))) (4x + 3 sqrt2 - 2) / (4 sqrt2 + 9 - 8 sqrt2 x)^(3/2)."""
    k = k_of_x(mp)
    s2 = mp.sqrt(2)
    shift = 3 * s2 - 2
    base = 4 * s2 + 9
    slope = 8 * s2
    def f(x, xc):
        d = base - slope * x
        return k(x, xc) * (4 * x + shift) / (d * mp.sqrt(d))
    return f


def singular_value_kernel_r4(mp):
    """K(2 sqrt(x(1-x))) / sqrt(9/8 + (1-2x)/sqrt2)."""
    k = k_of_x(mp)
    s2 = mp.sqrt(2)
    nine_eighth = mp.mpf(9) / 8
    def f(x, xc):
        return k(x, xc) / mp.sqrt(nine_eighth + (1 - 2 * x) / s2)
    return f


def complex_kernel_r3(mp):
    """K(2 sqrt(x(1-x))) / sqrt(3 + 4i(1-2x)), principal branch."""
    k = k_of_x(mp)
    def f(x, xc):
        return k(x, xc) / mp.sqrt(mp.mpc(3, 4 * (1 - 2 * x)))
    return f


def complex_kernel_r7(mp):
    """K(2 sqrt(x(1-x))) / sqrt(63 + 16i(1-2x)), principal branch."""
    k = k_of_x(mp)
    def f(x, xc):
        return k(x, xc) / mp.sqrt(mp.mpc(63, 16 * (1 - 2 * x)))
    return f


def axial_t_kernel(mp, b, c):
    """The axial kernel in t = tan th on (0, inf), with no trig at any node.

    K(sqrt(4ct / den2)) t / ((1+t^2)^(3/2) sqrt(den2)), den2 = b^2+(c+t)^2;
    the gap c - t in K's complementary modulus is read from xc next to t = c.
    """
    to_peak = offset(mp, c)
    b2 = b * b
    def f(t, xc):
        q = 1 + t * t
        gap = to_peak(t, xc)
        den2 = b2 + (c + t) ** 2
        kc = mp.sqrt((b2 + gap * gap) / den2)
        return ellipk_real_mp(mp, kc) * (t / mp.sqrt(q)) / mp.sqrt(den2) / q
    return f


def axial_kernel(mp, b, c):
    """The axial kernel in th on (0, pi/2): axial_t_kernel at tan th times 1 + tan^2 th.

    A Jacobian adapter with no K call of its own; the gap c - tan th
    reaches the t form as tan(atan c - th)(1 + c tan th), with
    atan c - th read from xc.  It is kept only because the benchmark's
    theta substitution chain integrates it.
    """
    to_peak = offset(mp, mp.atan(c))
    in_t = axial_t_kernel(mp, b, c)
    def f(theta, xc):
        t = mp.tan(theta)
        return (1 + t * t) * in_t(t, (1 + c * t) * mp.tan(to_peak(theta, xc)))
    return f


def special_case_kernel(mp):
    """K(2 sqrt(x(1-x))) x(1-x) / (1 - 2x(1-x))^(3/2)."""
    k = k_of_x(mp)
    def f(x, xc):
        p = x * (1 - x)
        q = 1 - 2 * p
        return k(x, xc) * p / (q * mp.sqrt(q))
    return f


def re_k_semi_infinite_kernel(mp, c):
    """Re[K(x)] c x / (1 + c^2 x^2)^(3/2) on (0, inf); modulus convention.

    Re K comes from its column's table, shared across c.
    """
    to_one = offset(mp, 1)
    re_k = _k_column(mp, "Re K(x)", lambda x, xc: re_k_modulus_mp(mp, x, to_one(x, xc)))
    c2 = c * c
    def f(x, xc):
        q = 1 + c2 * x * x
        return re_k(x, xc) * c * x / (q * mp.sqrt(q))
    return f


def axial_x_form_kernel(mp, c):
    """K(2 sqrt(x)/(1+x)) c x / ((1+x)(1+c^2 x^2)^(3/2)) on (0, inf).

    K comes from its column's table, shared across c.
    """
    to_one = offset(mp, 1)
    k = _k_column(mp, "K(2 sqrt(x)/(1+x))",
                  lambda x, xc: ellipk_real_mp(mp, abs(to_one(x, xc)) / (1 + x)))
    c2 = c * c
    def f(x, xc):
        p = 1 + x
        q = 1 + c2 * x * x
        return k(x, xc) * c * x / (p * q * mp.sqrt(q))
    return f


def signed_kernel_4sqrt2(mp):
    """K kernel against the signed rational weight evaluating to -pi/(8 sqrt2)."""
    k = k_of_x(mp)
    s2 = mp.sqrt(2)
    s3 = mp.sqrt(3)
    num0, num1 = 24 - 18 * s3, s2 * (6 * s3 - 11)
    den0, den1 = 42 - 15 * s3, 4 * s2 * (3 * s3 - 5)
    def f(x, xc):
        y = 2 * x - 1
        num = num0 + num1 * y
        den = den0 - den1 * y
        return k(x, xc) * num / (den * mp.sqrt(den))
    return f


def weighted_kernel_spec(a_values, order: int = 0):
    """The weighted K-kernel integrals over (0, 1) at each a in a_values.

    One vector integral, split at x = 1/2, with the a-derivatives 0..order
    at each a as its components (see weighted_kernel).
    """
    return IntegralSpec(f"weighted_kernel_d{order}", (order, *a_values), (0, 1),
                        weighted_kernel, singular_points=(0.5,))


def axial_t_spec(b, c):
    """The axial integral in t = tan th over (0, inf), split at t = c when c > 0.

    This is the form I6 integrates.  K is log-singular at t = c when b = 0
    and sharply peaked there when b is small.
    """
    singular = (c,) if c > 0 else ()
    return IntegralSpec("axial_t_kernel", (b, c), (0, INF), axial_t_kernel,
                        singular_points=singular)


def semi_infinite_spec(factory, c):
    """factory's integral over (0, inf), split at x = 1, where K is log-singular."""
    return IntegralSpec(factory.__name__, (c,), (0, INF), factory, singular_points=(1,))
