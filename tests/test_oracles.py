"""The series and recurrence routines against mpmath's own implementations.

Each library value at 30 digits is compared with an independent mpmath
function evaluated 10 digits higher.  Partial sums take enough terms that
their truncated tail sits below the tolerance.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multiell import (DomainError, PrecisionContext, clausen_sum,
                      clausen_sum_da, ellipk_series, legendre_p, legendre_sum)

CTX = PrecisionContext(30)
REF = CTX.boosted(10).mp
TOL = REF.mpf(10) ** (-(CTX.digits - 5))

oracle_settings = settings(max_examples=20, deadline=None, derandomize=True, database=None)
inside = st.floats(min_value=-0.9, max_value=0.9)
outside = st.floats(min_value=1, max_value=10).flatmap(lambda v: st.sampled_from((v, -v)))


def terms_for(ratio):
    """Terms after which ratio^n has dropped below 10^-(digits+5)."""
    if ratio == 0:
        return 1
    return int((CTX.digits + 5) * math.log(10) / -math.log(abs(ratio))) + 10


def hyp3f2(a):
    return REF.hyp3f2(0.5, 0.5, 0.5, 1, 1, -REF.mpf(a) ** 2)


def close(value, ref):
    return abs(REF.convert(value) - ref) <= TOL * max(1, abs(ref))


@oracle_settings
@given(inside)
def test_clausen_sum_against_hyp3f2(a):
    assert close(clausen_sum(a, terms_for(a * a), CTX), hyp3f2(a))


@oracle_settings
@given(inside)
def test_legendre_sum_against_hyp3f2(a):
    assert close(legendre_sum(a, terms_for(a * a), CTX), REF.pi ** 2 / 4 * hyp3f2(a))


@oracle_settings
@given(inside)
def test_clausen_sum_da_against_derivative_of_hyp3f2(a):
    assert close(clausen_sum_da(a, terms_for(a * a), CTX), REF.diff(hyp3f2, a))


@oracle_settings
@given(inside)
def test_ellipk_series_against_ellipk(m):
    assert close(ellipk_series(m, terms_for(m), CTX), REF.ellipk(m))


@oracle_settings
@given(st.integers(min_value=0, max_value=40), st.floats(min_value=-1, max_value=1))
def test_legendre_p_against_legendre(n, x):
    assert close(legendre_p(n, x, CTX), REF.legendre(n, x))


@oracle_settings
@given(outside)
@pytest.mark.parametrize("series", [clausen_sum_da, legendre_sum])
def test_a_dependent_series_reject_unit_and_beyond(series, a):
    with pytest.raises(DomainError):
        series(a, 10, CTX)
