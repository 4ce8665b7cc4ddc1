"""The kernels' K columns: each node's K kept on its cached panel point, at
that point's engine precision, shared by every integral that reads the
column; and the weighted kernel's integer
core, at a real a against an mpf evaluation of its closed form and at an
imaginary a against mpmath's mpc power; and the integer Re K and x-form
kernels against their printed mpf form, and the integer axial kernel
against mpmath's agm, 40 digits above the engine.

Each column test starts from an empty point cache and counts calls of K's
one entry point, ``ellipk_real_mp``, as both kernels and elliptic (behind
Re K) see it.  Values read from a memo must be bit-identical to values
computed afresh.
"""

import sys
import threading

import mpmath
import pytest

import multiell.elliptic as elliptic
import multiell.kernels as kernels
import multiell.quadrature as quadrature
from multiell import IntegralSpec, PrecisionContext, integrate
from multiell.quadrature import _TRANSFORMS, GUARD, Fixed, Gap, _level_nodes, fraction_bits, gap_to
from printed_integrands import catalog_point

HALF = 0.5


def empty_points():
    """Empty quadrature's point cache, and with it every node's memo."""
    quadrature._point_cache.clear()


def memoised_points():
    """The Gap of every cached point that holds a memo."""
    for points, _, _ in quadrature._point_cache.values():
        for node in points:
            yield from (xc for xc in node[3::4] if xc.memo)


@pytest.fixture
def k_calls(monkeypatch):
    """An empty point cache, and a list that grows by one per K evaluation."""
    calls = []
    plain = elliptic.ellipk_real_mp

    def counting(mp, kc):
        calls.append(kc)
        return plain(mp, kc)
    monkeypatch.setattr(quadrature, "_point_cache", {})
    monkeypatch.setattr(kernels, "ellipk_real_mp", counting)
    monkeypatch.setattr(elliptic, "ellipk_real_mp", counting)
    return calls


def unit_spec(factory):
    return IntegralSpec(factory.__name__, (), (0, 1), factory, singular_points=(HALF,))


I8 = unit_spec(kernels.k_of_x)


def outcome(r):
    return r.value, r.err_estimate, r.evaluations


def row_spec(rid, ctx):
    """The one integral that row rid's LHS runs, at the catalog's own point."""
    a, order, _ = catalog_point(rid, ctx)
    return kernels.weighted_kernel_spec((a,), order)


# at 50 digits I4 and I8 both stop at level 5, and the others at I8's level
ROW_DEPTHS = [("I2", 2), ("I3", 2), ("I4", 5), ("I5", 2), ("I10", 2)]


@pytest.mark.parametrize("rid, i8_min_level", ROW_DEPTHS, ids=[r for r, _ in ROW_DEPTHS])
def test_rows_after_i8_read_its_k_column(k_calls, rid, i8_min_level):
    # the weighted points read the K(2 sqrt(x(1-x))) column that I8 fills
    ctx = PrecisionContext(50)
    spec = row_spec(rid, ctx)
    cold = integrate(spec, ctx)
    assert k_calls
    empty_points()
    integrate(I8, ctx, min_level=i8_min_level)
    k_calls.clear()
    warm = integrate(spec, ctx)
    assert not k_calls
    assert outcome(warm) == outcome(cold)


def test_a_table_is_read_only_at_its_own_precision(k_calls):
    integrate(I8, PrecisionContext(50))
    for xc in memoised_points():  # a 60-digit integral reading these would fail
        xc.memo = tuple(v for column in xc.memo[::2] for v in (column, mpmath.mpf(0)))
    k_calls.clear()
    warm = integrate(I8, PrecisionContext(60))
    calls = len(k_calls)
    assert len({key[1] for key in quadrature._point_cache}) == 2  # two engine precisions
    empty_points()
    k_calls.clear()
    cold = integrate(I8, PrecisionContext(60))
    assert outcome(warm) == outcome(cold)
    assert calls == len(k_calls) > 0


def re_k_rest(mp, c, x):
    """The printed Re K kernel's factor beside K: c x / (1 + c^2 x^2)^(3/2)."""
    q = 1 + c * c * x * x
    return c * x / (q * mp.sqrt(q))


def x_form_rest(mp, c, x):
    """The printed x-form kernel's factor beside K: c x / ((1+x)(1 + c^2 x^2)^(3/2))."""
    return re_k_rest(mp, c, x) / (1 + x)


def re_k_at(mp, x, xc):
    return elliptic.re_k_modulus_mp(mp, x, mp.make_mpf(gap_to(mp, 1)(x, xc)))


def x_form_k_at(mp, x, xc):
    return elliptic.ellipk_real_mp(mp, abs(mp.make_mpf(gap_to(mp, 1)(x, xc))) / (1 + x))


def re_k_unmemoised(mp, c):
    return lambda x, xc: re_k_at(mp, x, xc) * re_k_rest(mp, c, x)


def x_form_unmemoised(mp, c):
    return lambda x, xc: x_form_k_at(mp, x, xc) * x_form_rest(mp, c, x)


SEMI_INFINITE = [(kernels.re_k_semi_infinite_kernel, re_k_unmemoised, re_k_at, re_k_rest),
                 (kernels.axial_x_form_kernel, x_form_unmemoised, x_form_k_at, x_form_rest)]


@pytest.mark.parametrize("memoised, unmemoised, _k, _rest", SEMI_INFINITE, ids=["re_k", "x_form"])
def test_semi_infinite_columns_are_exact_and_shared_across_c(k_calls, memoised, unmemoised,
                                                             _k, _rest):
    # the integer kernel equals the printed mpf form after rounding, on the
    # same nodes; a value read from a memo is bit-identical to one
    # computed afresh from an empty point cache
    ctx = PrecisionContext(50)
    misses, evaluations = [], []
    for c in ("0.5", "1.75"):
        plain = integrate(kernels.semi_infinite_spec(unmemoised, c), ctx)
        k_calls.clear()
        table = integrate(kernels.semi_infinite_spec(memoised, c), ctx)
        assert (table.value, table.evaluations) == (plain.value, plain.evaluations)
        misses.append(len(k_calls))
        evaluations.append(table.evaluations)
    assert len({column for xc in memoised_points() for column in xc.memo[::2]}) == 1
    assert misses[0] == evaluations[0]  # cold: every node is new
    assert misses[1] < evaluations[1]  # the second c reads the first's nodes
    empty_points()
    assert outcome(integrate(kernels.semi_infinite_spec(memoised, c), ctx)) == outcome(table)


def _nodes(mp, levels, *panels):
    """(x, xc) of every node of levels 0..levels-1 on each panel (lo, hi), as
    the quadrature passes them: tanh-sinh on a finite panel, exp-sinh on
    (lo, inf).

    Each level's table runs down to the quadrature's weight cutoff, so the
    nodes reach 10^-2(digits+10) from a finite end, and an exp-sinh panel
    reaches about the inverse of that.
    """
    cutoff = mp.mpf(10) ** (-2 * (mp.dps - GUARD + 10))
    for lo, hi in panels:
        lo, hi = mp.convert(lo), mp.convert(hi)
        kind = "exp-sinh" if mp.isinf(hi) else "tanh-sinh"
        _, scale_of, points = _TRANSFORMS[kind]
        for level in range(levels):
            for node in _level_nodes(mp, kind, level, cutoff)[0]:
                for _, _, x, xc in points(node, lo, hi, scale_of(lo, hi)):
                    yield x, xc


@pytest.mark.parametrize("digits", [30, 100, 300])
@pytest.mark.parametrize("c", ["1e-3", "0.5", "1.75", "40"])
@pytest.mark.parametrize("memoised, _, k_at, rest", SEMI_INFINITE, ids=["re_k", "x_form"])
def test_semi_infinite_kernels_against_mpf_reference(digits, c, memoised, _, k_at, rest):
    # K as the kernel's column computes it times the printed factor beside it,
    # 40 digits above the engine: the integer quotient is correct to a few
    # units of 2^-wp relative and is rounded once, by at most 2^-prec,
    # where the printed mpf form rounds at each of its operations
    emp = PrecisionContext(digits).boosted(GUARD).mp
    ref = PrecisionContext(digits + GUARD + 40).mp
    tol = ref.ldexp(1, -emp.prec) + ref.ldexp(64, -fraction_bits(emp))
    c = emp.mpf(c)
    f = memoised(emp, c)
    rc = ref.convert(c)
    nodes = list(_nodes(emp, 3, (0, 1), (1, emp.inf)))
    assert max(x for x, _ in nodes) > emp.mpf(10) ** (digits * 3 // 2)
    for x, xc in nodes:
        value = f(x, xc)
        assert type(value) is emp.mpf
        want = ref.convert(k_at(emp, x, xc)) * rest(ref, rc, ref.convert(x))
        assert abs(ref.convert(value) - want) <= tol * abs(want), (x, xc)


@pytest.mark.parametrize("digits", [30, 100, 300])
@pytest.mark.parametrize("b, c", [("0", "0"), ("0", "1"), ("0.5", "0"), ("1e-3", "1.95"),
                                  ("2", "0.85")])
def test_axial_t_kernel_against_agm_reference(digits, b, c):
    # (pi/2) t / ((1+t^2)^(3/2) agm(sqrt(den2), sqrt(b^2 + gap^2))) from
    # mpmath's agm 40 digits above the engine, at I6's nodes as the
    # quadrature passes them (t from about 10^-2(digits+10) to its inverse,
    # and next to t = c from both sides): the integer kernel holds a few
    # units of 2^-wp relative and is rounded once
    emp = PrecisionContext(digits).boosted(GUARD).mp
    ref = PrecisionContext(digits + GUARD + 40).mp
    tol = ref.ldexp(1, -emp.prec) + ref.ldexp(64, -fraction_bits(emp))
    b, c = emp.mpf(b), emp.mpf(c)
    f = kernels.axial_t_kernel(emp, b, c)
    to_peak = gap_to(emp, c)
    rb, rc = ref.convert(b), ref.convert(c)
    panels = ((0, c), (c, emp.inf)) if c else ((0, emp.inf),)
    for t, xc in _nodes(emp, 3, *panels):
        rt, gap = ref.convert(t), ref.make_mpf(to_peak(t, xc))
        mean = ref.agm(ref.sqrt(rb * rb + (rc + rt) ** 2), ref.sqrt(rb * rb + gap * gap))
        want = ref.pi / 2 * rt / ((1 + rt * rt) ** 1.5 * mean)
        assert abs(ref.convert(f(t, xc)) - want) <= tol * abs(want), (t, xc)



@pytest.mark.parametrize("digits", [30, 100])
@pytest.mark.parametrize("b, c", [("0", "1"), ("1e-3", "1.95"), ("2", "0.85")])
def test_axial_t_kernel_pointwise_route_is_the_quadrature_route(digits, b, c):
    # at I6's nodes whose nearer end is t = c: given that end, the kernel
    # takes c - t from xc; given none, as a pointwise caller passes it, it
    # subtracts.  Wherever the two gaps agree bit for bit, so do the values
    emp = PrecisionContext(digits).boosted(GUARD).mp
    c = emp.mpf(c)
    f = kernels.axial_t_kernel(emp, emp.mpf(b), c)
    agree = 0
    for t, xc in _nodes(emp, 3, (0, c), (c, emp.inf)):
        if xc.end == c._mpf_ and (c - t)._mpf_ == xc._mpf_:
            assert f(t, xc) == f(t, Gap(None, None)), t
            agree += 1
    assert agree > 20

def test_concurrent_integrals_return_their_serial_values(k_calls):
    # more threads than cores, switching often, all on one cold K column
    ctx = PrecisionContext(50)
    jobs = (("I8", I8), ("I10", row_spec("I10", ctx)), ("I2", row_spec("I2", ctx)), ("I8 again", I8))
    serial = {}
    for name, spec in jobs:
        empty_points()
        serial[name] = outcome(integrate(spec, ctx))
    empty_points()
    threaded = {}

    def run(name, spec):
        threaded[name] = outcome(integrate(spec, ctx))
    threads = [threading.Thread(target=run, args=job) for job in jobs]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert threaded == serial


@pytest.mark.parametrize("digits", [30, 100, 300])
@pytest.mark.parametrize("a", ["0", "1e-3", "0.5", "0.95", "0.999", "1", "1.1", "4", "1e6"])
def test_weighted_kernel_against_mpf_reference(digits, a):
    # each component K d^j g/da^j against the closed form evaluated 40 digits
    # above the engine from the same K, 1 - x and a; the integer core
    # chooses its scale per node, so every component keeps wp bits
    # relative to its size: a few units of 2^-wp times max(1, |value|)
    emp = PrecisionContext(digits).boosted(GUARD).mp
    ref = PrecisionContext(digits + GUARD + 40).mp
    wp = fraction_bits(emp)
    a = emp.mpf(a)
    f = kernels.weighted_kernel(emp, 3, a)
    k = kernels.k_of_x(emp)
    to_one = gap_to(emp, 1)
    ra = ref.convert(a)
    nodes = list(_nodes(emp, 3, (0, HALF), (HALF, 1)))
    assert min(emp.convert(xc) for _, xc in nodes if emp.convert(xc) > 0) < \
        emp.mpf(10) ** (-3 * digits // 2)
    for x, xc in nodes:
        value = f(x, xc)
        assert type(value) is Fixed and value.exp <= -wp
        kx = ref.convert(k(x, xc))
        o = ref.make_mpf(to_one(x, xc))
        u = (1 - ra) ** 2 + 4 * ra * o
        ua = 2 * (ra - 1 + 2 * o)
        g = 1 / ref.sqrt(u)
        g3 = g / u
        g5 = g3 / u
        exact = (g, -ua * g3 / 2, 3 * ua * ua * g5 / 4 - g3,
                 (ref.mpf(9) / 2 - ref.mpf(15) / 8 * ua * ua / u) * ua * g5)
        for j, (mantissa, w) in enumerate(zip(value.mantissas, exact)):
            want = kx * w
            got = ref.ldexp(mantissa, value.exp)
            assert abs(got - want) <= ref.ldexp(64, -wp) * max(1, abs(want)), (x, xc, j)


@pytest.mark.parametrize("digits", [30, 100, 300])
@pytest.mark.parametrize("b", ["0.5", "0.125", "-0.9", "0.999", "1e-3", "0"])
def test_imaginary_a_against_mpc_power(digits, b):
    # a = ib: the components K Re g and K Im g against mpmath's principal
    # (1 - 2(2x-1)a + a^2)^(-1/2) 40 digits above the engine, from the same
    # K and 1 - x.  |g| >= (1 + b^2)^(-1/2) and one scale serves every
    # node, so each part keeps a few units of 2^-wp times max(1, |K g|);
    # next to x = 1/2, where Im g vanishes and K peaks, that bounds K Im g
    # only through K
    emp = PrecisionContext(digits).boosted(GUARD).mp
    ref = PrecisionContext(digits + GUARD + 40).mp
    wp = fraction_bits(emp)
    a = emp.mpc(0, emp.mpf(b))
    f = kernels.weighted_kernel(emp, 0, a)
    k = kernels.k_of_x(emp)
    to_one = gap_to(emp, 1)
    ra = ref.convert(a)
    for x, xc in _nodes(emp, 3, (0, HALF), (HALF, 1)):
        value = f(x, xc)
        assert type(value) is Fixed and value.exp <= -wp and len(value.mantissas) == 2
        y = 1 - 2 * ref.make_mpf(to_one(x, xc))  # 2x - 1
        want = ref.convert(k(x, xc)) * (1 - 2 * y * ra + ra * ra) ** -0.5
        for mantissa, w in zip(value.mantissas, (want.real, want.imag)):
            got = ref.ldexp(mantissa, value.exp)
            assert abs(got - w) <= ref.ldexp(64, -wp) * max(1, abs(want)), (x, xc)


@pytest.mark.parametrize("a, order", [
    ("0.5j", 1), ("0.5j", 3),  # an imaginary a is taken at order 0 only
    ("1j", 0), ("-1j", 0), ("1.5j", 0),  # |b| >= 1
    ("0.5+0.5j", 0), ("0.5+0j", 0),  # a complex a with a real part
])
def test_imaginary_a_outside_the_core_raises(a, order):
    emp = PrecisionContext(30).boosted(GUARD).mp
    a = emp.mpc(complex(a))
    with pytest.raises(ValueError):
        kernels.generating_weight(emp, a, order)
    with pytest.raises(ValueError):
        kernels.weighted_kernel(emp, order, emp.mpf("0.5"), a)
