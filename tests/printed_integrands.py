"""The printed integrands of the five catalog rows that are points of the
weighted K-kernel integral, kept as test oracles for the catalog's data.

The catalog integrates I2, I3, I4, I5 and I10 as an a and coefficients over
the components of ``kernels.weighted_kernel_spec``.  Here each row's
integrand stands as printed: K(2 sqrt(x(1-x))) times the row's algebraic
factor, formed from x in the engine's mpmath context (the complex rows
through an mpc square root, principal branch).  ``printed_factory(rid)``
makes that integrand, and ``printed_spec(rid, part)`` integrates its real
or imaginary part over (0, 1), split at x = 1/2: quadrature integrates
real values only.  ``catalog_point(rid, ctx)`` reads the row's data from
the catalog.
"""

from multiell import IntegralSpec
from multiell.identities import _WEIGHTED_ROWS
from multiell.kernels import k_of_x


def _ratio_2sqrt2(mp):
    """(4x + 3 sqrt2 - 2) / (4 sqrt2 + 9 - 8 sqrt2 x)^(3/2)."""
    s2 = mp.sqrt(2)
    shift, base, slope = 3 * s2 - 2, 4 * s2 + 9, 8 * s2

    def w(x):
        d = base - slope * x
        return (4 * x + shift) / (d * mp.sqrt(d))
    return w


def _singular_value_r4(mp):
    """1 / sqrt(9/8 + (1-2x)/sqrt2)."""
    s2 = mp.sqrt(2)
    nine_eighth = mp.mpf(9) / 8
    return lambda x: 1 / mp.sqrt(nine_eighth + (1 - 2 * x) / s2)


def _complex_r3(mp):
    """1 / sqrt(3 + 4i(1-2x))."""
    return lambda x: 1 / mp.sqrt(mp.mpc(3, 4 * (1 - 2 * x)))


def _complex_r7(mp):
    """1 / sqrt(63 + 16i(1-2x))."""
    return lambda x: 1 / mp.sqrt(mp.mpc(63, 16 * (1 - 2 * x)))


def _signed_4sqrt2(mp):
    """The signed rational weight whose integral against K is -pi/(8 sqrt2)."""
    s2 = mp.sqrt(2)
    s3 = mp.sqrt(3)
    num0, num1 = 24 - 18 * s3, s2 * (6 * s3 - 11)
    den0, den1 = 42 - 15 * s3, 4 * s2 * (3 * s3 - 5)

    def w(x):
        y = 2 * x - 1
        den = den0 - den1 * y
        return (num0 + num1 * y) / (den * mp.sqrt(den))
    return w


PRINTED_WEIGHTS = {"I2": _ratio_2sqrt2, "I3": _singular_value_r4, "I4": _complex_r3,
                   "I5": _complex_r7, "I10": _signed_4sqrt2}


def printed_factory(rid):
    """The printed integrand of row rid, K(2 sqrt(x(1-x))) times its weight."""
    def factory(mp):
        k = k_of_x(mp)
        w = PRINTED_WEIGHTS[rid](mp)
        return lambda x, xc: k(x, xc) * w(x)
    return factory


def printed_spec(rid, part="real"):
    """The integral over (0, 1), split at x = 1/2, of the real or imaginary
    part (as part names) of row rid's printed integrand."""
    def factory(mp):
        f = printed_factory(rid)(mp)
        return lambda x, xc: getattr(f(x, xc), part)
    return IntegralSpec(f"printed_{rid}_{part}", (), (0, 1), factory, singular_points=(0.5,))


def catalog_point(rid, ctx):
    """Row rid's (a, order, coefficients), from the catalog's data at ctx's guard precision.

    An imaginary a takes the weight's real and imaginary parts at order 0;
    a real a takes its a-derivatives 0..order, one coefficient each.
    """
    point, _ = _WEIGHTED_ROWS[rid]
    a, coefficients = point(ctx.boosted(10), {})
    return a, 0 if hasattr(a, "_mpc_") else len(coefficients) - 1, coefficients
