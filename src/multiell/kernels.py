"""Integrand factories for the identity catalog and the operator checks.

Each factory takes the quadrature engine's mpmath context plus the
identity's parameters and returns the integrand f(x, xc) of the abscissa x
and its Gap xc to the nearer panel end (see quadrature).
Rows that the paper reduces to its generating integral (I2, I3, I4, I5,
I10) are points of the one weighted kernel, at a real or imaginary a (see
identities); the other kernels are transcribed as printed, with two
rewrites that keep the engine at digits + GUARD:

* K's one input is its complementary modulus kc = sqrt(1 - m); each kernel
  forms kc without cancellation and never forms the parameter m:
  2|1/2 - x| for K(2 sqrt(x(1-x))); sqrt((1-x)(1+x)) and
  sqrt((x-1)(x+1))/x for Re K at modulus x; |1-x|/(1+x) for
  K(2 sqrt(x)/(1+x)).  The axial kernel forms no kc at all (below).
* The distance to a kernel's singular abscissa (1/2 - x, 1 - x, c - t)
  comes from quadrature.gap_to, as xc's exact gap where the node's panel
  ends there; the generating weight is formed as (1-a)^2 + 4a(1-x), which
  equals 1 - 2(2x-1)a + a^2.

The axial kernel: axial_t_kernel is its one body, the integrand that I6
integrates over (0, inf) split at t = c and that the Laplace check
differentiates in (b, c); axial_kernel is only its Jacobian adapter to
th = atan t, kept for the benchmark's theta substitution chain.  Its K
depends on (b, c) as well as the node, so it is not tabulated; instead
the AGM's homogeneity folds K's 1/sqrt(den2) into its arguments,
K(kc)/sqrt(den2) = (pi/2) / agm(sqrt(den2), sqrt(b^2 + (c-t)^2)), and the
node runs on ints through elliptic.agm_int, the integer AGM core behind
every K, at a scale chosen per node from the smaller argument.  It makes
no mpf sqrt or division and no K call.

Semi-infinite integrands run on ints too and return one mpf, rounded
once: an exp-sinh panel's weights grow without bound, so quadrature asks
its integrands for an mpf, relative to itself, rather than a Fixed.  The
rational factor c x / (1 + c^2 x^2)^(3/2) of the axial kernel, of the Re
K kernel and of the x form (with 1/(1+x) there) is built from one
math.isqrt at a scale chosen per node from the magnitude of c x, and so
holds a few units of 2^-wp relative to itself however small or large c x
is; K's exact mantissa multiplies it, and one integer division gives the
value.  The I7 kernel is built the same way on (0, 1).

K columns: the K factor of the kernels K(2 sqrt(x(1-x))), Re K(x) and
K(2 sqrt(x)/(1+x)) depends on the node alone, and many integrals share its
panels (ten rows, the ODE grid and the sweep share the first's; I9 and the
substitution chain the other two's at every c).  quadrature keeps each
panel's points, so each column keeps a node's K in xc.memo under the
column's name: the first integral to reach the point computes it, and
every later one reads it, bit-identical, skipping the kc arithmetic and
the AGM.  A point evicted from quadrature's bounded cache takes its memo.

``weighted_kernel`` is a vector integrand (see quadrature) on integers:
an ODE check (four a-derivatives at one a) or a sweep over a (one weight
at each a) is one integral, with K and 1 - x kept on each node's memo.
Constants are hoisted out of the other integrands into their factories.

The ``*_spec`` builders at the end pair a factory with its interval and
singular points for the integrals that more than one module runs.  They
look IntegralSpec up by name at call time, so an instrumented replacement
of that name reaches every spec they build.
"""

from __future__ import annotations

from math import isqrt

from mpmath.libmp import from_man_exp, mpf_abs, mpf_shift, pi_fixed, to_fixed

from .elliptic import agm_int, ellipk_real_mp, re_k_modulus_mp
from .errors import SingularityError
from .quadrature import INF, Fixed, Gap, IntegralSpec, fraction_bits, gap_to

def _memoised(key: str, compute):
    """(x, xc) -> compute(x, xc), a node-only value, kept in xc.memo under key.

    Concurrent integrals may both store a node's value, or one may drop the
    other's entry; either only costs a recomputation.
    """
    def f(x, xc):
        memo = xc.memo
        if memo:
            for i in range(0, len(memo), 2):
                if memo[i] is key:
                    return memo[i + 1]
        v = compute(x, xc)
        if memo is not False:
            xc.memo = (*(memo or ()), key, v)
        return v
    return f


def k_of_x(mp):
    """K(2 sqrt(x(1-x))) as a function on (0,1); singular at x = 1/2.

    Values come from the column's memo (see the module docstring).  Misses
    are memoised on kc = 2|1/2 - x| for the life of the returned function
    (so per integral): the panels (0, 1/2) and (1/2, 1) place mirror-image
    nodes, and many of them share an exact kc.
    """
    to_half = gap_to(mp, 0.5)
    memo = {}

    def k_at(x, xc):
        kc = mpf_shift(mpf_abs(to_half(x, xc)), 1)  # 2|1/2 - x|, exactly
        k = memo.get(kc)
        if k is None:
            k = memo[kc] = ellipk_real_mp(mp, mp.make_mpf(kc))
        return k
    return _memoised("K(2 sqrt(x(1-x)))", k_at)


def _magnitude(v):
    """floor(log2 |v|) of a nonzero mpf tuple: |v| lies in [2^m, 2^(m+1))."""
    _, _, exp, bc = v
    return exp + bc - 1


def _weight_core(mp, a, order: int):
    """(g, dg/da, ..., d^order g/da^order) of g = u^(-1/2) on integers.

    u = (1-a)^2 + 4a(1-x) = 1 - 2(2x-1)a + a^2.  Returns a function of 1 - x,
    an mpf tuple, giving (mantissas, s): derivative k is mantissas[k] 2^-s.
    The scale s is chosen per call, as agm1_mp chooses its wp from kc.  For
    0 <= 1-x <= 1, u lies between (1-|a|)^2, or 4a(1-x) when a > 0, and
    (1+|a|)^2: s = wp - log2 u keeps wp bits of u where it is small, and
    s = wp + 2.5 log2 (1+|a|)^2 keeps wp bits of u^(-5/2) where it is
    large.  At a = 1, u = 4(1-x) falls to 4 10^-2(digits+10) at the last
    nodes, which one absolute scale would round to 0.  du/da =
    2(a - 1 + 2(1-x)) is formed from 1 - x as well.

    An imaginary a = ib, |b| < 1, gives (Re g, Im g) at order 0; any other
    complex a raises ValueError.  |u| lies in [1 - b^2, 1 + b^2], so one
    s = wp - log2(1 - b^2) serves; g = conj(sqrt u) / |u| from one isqrt
    each for |u| and Re sqrt u, neither of which cancels next to x = 1/2.
    """
    if order not in (0, 1, 2, 3):
        raise ValueError(f"order must be 0..3, got {order}")
    a = mp.convert(a)
    wp = fraction_bits(mp)
    if hasattr(a, "_mpc_"):
        b = a.imag
        if a.real or order or not abs(b) < 1:
            raise ValueError(f"a complex a must be ib, |b| < 1, at order 0; got {a}, order {order}")
        s = wp - _magnitude((1 - b * b)._mpf_)
        b_s = b.to_fixed(s)
        re_u = (1 << s) - (b_s * b_s >> s)

        def f_imaginary(one_minus_x):
            im_u = b_s * ((to_fixed(one_minus_x, s) << 2) - (2 << s)) >> s  # 2b(2(1-x) - 1)
            abs_u = isqrt(re_u * re_u + im_u * im_u)
            re_root = isqrt((abs_u + re_u) << s - 1)  # Re sqrt u; Im sqrt u = Im u / (2 re_root)
            return ((re_root << s) // abs_u, (-im_u << 2 * s) // (2 * re_root * abs_u)), s
        return f_imaginary
    above = 5 * max(0, _magnitude((1 + abs(a))._mpf_) + 1)
    # log2 of the two lower bounds of u, where they are not 0
    shift_log = 2 * _magnitude((1 - abs(a))._mpf_) if abs(a) != 1 else None
    a_log = _magnitude(a._mpf_) + 2 if a > 0 else None
    scales = {}  # s -> ((1 - a) 2^s, (1 - a)^2 2^2s, 4a 2^s, 2^2s), filled as scales are met

    def f(one_minus_x):
        below = shift_log
        if a_log is not None and one_minus_x[1] and not one_minus_x[0]:  # 1 - x > 0
            prod_log = a_log + _magnitude(one_minus_x)
            below = prod_log if below is None else max(below, prod_log)
        s = wp + max(above, -(below or 0))
        constants = scales.get(s)
        if constants is None:
            a_s = a.to_fixed(s)
            d = (1 << s) - a_s
            constants = scales[s] = (d, d * d, 4 * a_s, 1 << 2 * s)
        d, d_squared, four_a, unit_squared = constants
        o = to_fixed(one_minus_x, s)
        u = (d_squared + four_a * o) >> s
        g = unit_squared // isqrt(u << s)  # u^(-1/2) 2^s
        if order == 0:
            return (g,), s
        ua = 4 * o - 2 * d  # du/da 2^s
        g3 = (g << s) // u  # u^(-3/2) 2^s
        d1 = -(ua * g3 >> s + 1)
        if order == 1:
            return (g, d1), s
        g5 = (g3 << s) // u  # u^(-5/2) 2^s
        d2 = (3 * ua * ua * g5 >> 2 * s + 2) - g3
        if order == 2:
            return (g, d1, d2), s
        q = ua * ua // u  # ua^2 / u 2^s
        d3 = ((36 << s) - 15 * q) * ua * g5 >> 2 * s + 3  # (9/2 - 15/8 q) ua g5
        return (g, d1, d2, d3), s
    return f


def generating_weight(mp, a, order: int = 0):
    """(g, dg/da, ..., d^order g/da^order) of g = (1 - 2(2x-1)a + a^2)^(-1/2).

    Returns a function of 1 - x, the mpf view of the integer core that
    weighted_kernel integrates: each value rounded once into mp.  order is
    0..3; an imaginary a = ib, |b| < 1, gives (Re g, Im g) at order 0.  The
    closed-form algebraic derivatives share u, du/da and sqrt(u); they are
    cross-checked against finite differences of g in the test suite.
    """
    core = _weight_core(mp, a, order)

    def f(one_minus_x):
        values, s = core(mp.convert(one_minus_x)._mpf_)
        return tuple(mp.mpf((v, -s)) for v in values)
    return f


def weighted_kernel(mp, order: int, *a_values):
    """K(2 sqrt(x(1-x))) times the generating weight's a-derivatives 0..order.

    One component per (a, derivative) pair, a-major: params (order, a1, ...,
    an) give order + 1 components per real a (Re and Im at an imaginary a),
    all sharing one K value and one 1 - x per node, kept on its memo.  Returns
    a Fixed: K's exact mantissa times each weight's integer, at the finest a's
    scale.  The first a is the body's own, so one a costs what a body for one
    a alone would; each further a shifts what came before only if its scale
    is finer.
    """
    k = k_of_x(mp)
    to_one = gap_to(mp, 1)
    node = _memoised("K, 1 - x", lambda x, xc: (k(x, xc)._mpf_, to_one(x, xc)))
    first, *rest = (_weight_core(mp, a, order) for a in a_values)

    def f(x, xc):
        (_, k_man, k_exp, _), one_minus_x = node(x, xc)  # K > 0
        values, top = first(one_minus_x)
        mantissas = [k_man * w for w in values]
        for core in rest:
            values, s = core(one_minus_x)
            if s > top:
                mantissas = [m << s - top for m in mantissas]
                top = s
            mantissas += [k_man * w << top - s for w in values]
        return Fixed(tuple(mantissas), k_exp - top)
    return f


def _shift(v: int, n: int) -> int:
    """v 2^n, truncated toward minus infinity when n < 0."""
    return v << n if n >= 0 else v >> -n


def _one_plus(man: int, exp: int, bits: int):
    """1 + man 2^exp for an int man >= 0, as (d, e): d 2^e within 2^(1-bits) relative.

    The scale 2^-e is chosen from man 2^exp's magnitude, so d has about
    bits bits whether the sum is 1 or 2^1000; e is even.
    """
    e = max(0, exp + man.bit_length()) - bits
    e -= e & 1
    return _shift(1, -e) + _shift(man, exp - e), e


def _cube_half(man: int, exp: int, bits: int):
    """(1 + y^2)^(3/2) of y = man 2^exp as (d, e): d 2^e within a few units of 2^-bits relative."""
    q, e = _one_plus(man * man, 2 * exp, bits)
    k = bits + (bits & 1)  # e - k even: sqrt(q 2^e) = isqrt(q 2^k) 2^((e-k)/2)
    return q * isqrt(q << k), e + (e - k) // 2


def _ratio(mp, num: int, den: int, exp: int, bits: int):
    """num/den 2^exp for den > 0, as an mpf of mp: one integer division to
    bits + 2 bits, then rounded once into mp, as mp.mpf rounds."""
    k = max(0, bits + 2 + den.bit_length() - abs(num).bit_length())
    return mp.make_mpf(from_man_exp((num << k) // den, exp - k, mp.prec, "n"))


def axial_t_kernel(mp, b, c):
    """The axial kernel in t = tan th on (0, inf), with no trig at any node.

    K(sqrt(4ct / den2)) t / ((1+t^2)^(3/2) sqrt(den2)), den2 = b^2+(c+t)^2;
    the gap c - t in K's complementary modulus is read from xc next to t = c.
    It runs on ints, by homogeneity of the AGM:
    K / sqrt(den2) = (pi/2) / agm(sqrt(den2), sqrt(b^2 + gap^2)), both
    arguments at a scale 2^s that gives the smaller wp bits, so no kc is
    formed.  At b = 0 a node with gap exactly 0 raises SingularityError.
    """
    to_peak = gap_to(mp, c)
    wp = fraction_bits(mp)
    _, bm, be, bbc = mp.convert(b)._mpf_
    _, cm, ce, _ = mp.convert(c)._mpf_
    b_top = be + bbc if bm else -INF  # |b| < 2^b_top
    half_pi = pi_fixed(wp)  # (pi/2) 2^(wp+1)

    def f(t, xc):
        _, gm, ge, gbc = to_peak(t, xc)
        if gm:
            top = max(b_top, ge + gbc)
        elif bm:
            top = b_top
        else:
            raise SingularityError("the axial kernel's K is singular at t = c when b = 0")
        s = wp - top  # sqrt(b^2 + gap^2) 2^s >= 2^(wp-1)
        b_s, g_s = _shift(bm, be + s), _shift(gm, ge + s)
        _, tm, te, _ = t._mpf_
        ct_s = _shift(cm, ce + s) + _shift(tm, te + s)
        mean = agm_int(isqrt(b_s * b_s + ct_s * ct_s), isqrt(b_s * b_s + g_s * g_s))
        d, e = _cube_half(tm, te, wp)
        return _ratio(mp, half_pi * tm, d * mean, te - e + s - wp - 1, wp)
    return f


def axial_kernel(mp, b, c):
    """The axial kernel in th on (0, pi/2): axial_t_kernel at tan th times 1 + tan^2 th.

    A Jacobian adapter with no K call of its own; where th's panel ends at
    atan c, the gap c - tan th reaches the t form as tan(atan c - th)(1 +
    c tan th), from xc's exact gap, and elsewhere the t form subtracts.  It
    is kept only because the benchmark's theta substitution chain integrates it.
    """
    peak, c_end = mp.atan(c)._mpf_, mp.convert(c)._mpf_
    in_t = axial_t_kernel(mp, b, c)
    def f(theta, xc):
        t = mp.tan(theta)
        gap = Gap(c_end, ((1 + c * t) * mp.tan(xc))._mpf_) if xc.end == peak else Gap(None, None)
        return (1 + t * t) * in_t(t, gap)
    return f


def special_case_kernel(mp):
    """K(2 sqrt(x(1-x))) x(1-x) / (1 - 2x(1-x))^(3/2), on ints.

    K's exact mantissa from its column times p = x(1-x), an exact integer
    product (x = xm 2^xe < 1 gives 1 - x = (2^-xe - xm) 2^xe); q = 1 - 2p
    lies in [1/2, 1], so one scale 2^wp serves q and sqrt(q).
    """
    k = k_of_x(mp)
    wp = fraction_bits(mp)
    one = 1 << wp

    def f(x, xc):
        _, k_man, k_exp, _ = k(x, xc)._mpf_
        _, xm, xe, _ = x._mpf_
        pm = xm * ((1 << -xe) - xm)  # p = pm 2^(2 xe)
        q = one - _shift(pm, 2 * xe + wp + 1)  # (1 - 2p) 2^wp
        return _ratio(mp, k_man * pm, q * isqrt(q << wp), k_exp + 2 * xe + 2 * wp, wp)
    return f


def _k_times_rational(mp, c, k, over_one_plus_x: bool):
    """k(x, xc) c x / (1 + c^2 x^2)^(3/2), over 1 + x as well if asked, on ints.

    K's exact mantissa times c x over _cube_half(c x) (times _one_plus(x))
    is one integer division.
    """
    wp = fraction_bits(mp)
    sign, cm, ce, _ = mp.convert(c)._mpf_
    cm = -cm if sign else cm

    def f(x, xc):
        _, k_man, k_exp, _ = k(x, xc)._mpf_
        _, xm, xe, _ = x._mpf_
        d, e = _cube_half(cm * xm, ce + xe, wp)
        if over_one_plus_x:
            p, ep = _one_plus(xm, xe, wp)
            d, e = d * p, e + ep
        return _ratio(mp, k_man * cm * xm, d, k_exp + ce + xe - e, wp)
    return f


def re_k_semi_infinite_kernel(mp, c):
    """Re[K(x)] c x / (1 + c^2 x^2)^(3/2) on (0, inf); modulus convention.

    Re K comes from its column's memo, shared across c.
    """
    to_one = gap_to(mp, 1)
    re_k = _memoised("Re K(x)", lambda x, xc: re_k_modulus_mp(mp, x, mp.mpf(to_one(x, xc))))
    return _k_times_rational(mp, c, re_k, False)


def axial_x_form_kernel(mp, c):
    """K(2 sqrt(x)/(1+x)) c x / ((1+x)(1+c^2 x^2)^(3/2)) on (0, inf).

    K comes from its column's memo, shared across c.
    """
    to_one = gap_to(mp, 1)
    k = _memoised("K(2 sqrt(x)/(1+x))",
                  lambda x, xc: ellipk_real_mp(mp, mp.mpf(mpf_abs(to_one(x, xc))) / (1 + x)))
    return _k_times_rational(mp, c, k, True)


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
