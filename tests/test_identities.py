import dataclasses
import itertools
import json

import pytest

from multiell import (DomainError, OutOfDomainError, PrecisionContext,
                      SeriesId, clausen_sum, clausen_sum_da, export, integrate,
                      kernels, legendre_sum, linear_bridge, list_identities,
                      sweep, verify)
from multiell.identities import _validated, _verify_points, get_identity


def test_catalog_shape():
    rows = list_identities()
    assert len(rows) == 14
    ids = [r.id for r in rows]
    assert ids[0] == "I1"
    assert ids[1] == "I1-ext"
    assert ids[-1] == "I13"
    assert ids == sorted(ids, key=ids.index)  # deterministic order


def test_catalog_domains():
    rows = {r.id: r for r in list_identities()}
    assert [p.describe() for p in rows["I6"].params] == ["b in [0, 1e10]", "c in [0, 1e10]"]
    assert [p.describe() for p in rows["I9"].params] == ["c in [1e-10, 1e10]"]
    assert [p.describe() for p in rows["I1"].params] == ["a in [0, 1]"]
    assert rows["I12"].params[0].describe() == "variant in {0, 1}"


def test_verify_plain_kernel(ctx):
    report = verify("I8", {}, ctx)
    assert report.passed
    assert abs(report.lhs_value - ctx.mp.pi ** 2 / 4) <= ctx.pass_tol
    assert report.digits_used == 50


def test_i1_at_zero_reduces_to_plain_kernel(ctx):
    r_zero = verify("I1", {"a": 0}, ctx)
    r_plain = verify("I8", {}, ctx)
    assert r_zero.lhs_value == r_plain.lhs_value  # weight is exactly one
    assert abs(r_zero.rhs_value - r_plain.rhs_value) <= ctx.mp.mpf(10) ** (-ctx.digits + 2)


def test_complex_lhs_needs_a_vanishing_imaginary_part(ctx30):
    # at 30 digits an imaginary part of 1e-30 is within pass_tol of the
    # RHS, but not within ten times an error estimate of 1e-45
    mp = ctx30.mp
    rec = get_identity("I8")
    rhs = rec.rhs(ctx30, {})
    for lhs, passed in ((mp.mpc(rhs, "1e-30"), False), (rhs, True)):
        row = dataclasses.replace(rec, lhs=lambda ctx, points: [(lhs, mp.mpf("1e-45"))])
        report, = _verify_points(row, [{}], ctx30)
        assert report.passed is passed


@pytest.mark.parametrize("rid", ["I4", "I5"])
def test_complex_rows_keep_their_imaginary_part_check(ctx, rid):
    # an imaginary a gives an mpc left-hand side, so _verify_points checks
    # its imaginary part; the weight is conjugate-symmetric about x = 1/2
    report = verify(rid, {}, ctx)
    assert hasattr(report.lhs_value, "_mpc_")
    assert report.passed
    assert abs(report.lhs_value.imag) <= 10 * report.err_estimate


def test_axial_special_case_links(ctx):
    # at b=0, c=1 the axial identity evaluates to pi/(2 sqrt 2) and matches
    # the (0,1) rearrangement identity I7
    mp = ctx.mp
    r6 = verify("I6", {"b": 0, "c": 1}, ctx)
    r7 = verify("I7", {}, ctx)
    assert r6.passed and r7.passed
    assert abs(r6.rhs_value - mp.pi / (2 * mp.sqrt(2))) <= mp.mpf(10) ** (-ctx.digits + 2)
    assert abs(r6.lhs_value - r7.lhs_value) <= ctx.pass_tol


def test_axial_matches_semi_infinite_form(ctx):
    r6 = verify("I6", {"b": 0, "c": 2}, ctx)
    r9 = verify("I9", {"c": 2}, ctx)
    assert abs(r6.lhs_value - r9.lhs_value) <= ctx.pass_tol
    assert abs(r6.rhs_value - r9.rhs_value) <= ctx.mp.mpf(10) ** (-ctx.digits + 2)


@pytest.mark.parametrize("c", ["1", "2", "1000", "1e10"])
def test_axial_at_b_zero_from_c_one_is_i9(ctx, c):
    # there I6 integrates I9's Re K form, whose K column every c shares
    r6, r9 = verify("I6", {"b": 0, "c": c}, ctx), verify("I9", {"c": c}, ctx)
    assert (r6.lhs_value, r6.err_estimate) == (r9.lhs_value, r9.err_estimate)


@pytest.mark.parametrize("c", ["0.5", "0.999", "1e-8"])
def test_axial_at_b_zero_below_c_one_is_the_t_form(monkeypatch, ctx, c):
    # below c = 1 the Re K form can need a level more than the t form
    import multiell.identities as identities
    results = []

    def recording(spec, ctx, **kw):
        results.append(integrate(spec, ctx, **kw))
        return results[-1]
    monkeypatch.setattr(identities, "integrate", recording)
    verify("I6", {"b": 0, "c": c}, ctx)
    t_form = integrate(kernels.axial_t_spec(0, ctx.mp.mpf(c)), ctx)
    assert [(r.value, r.evaluations) for r in results] == [(t_form.value, t_form.evaluations)]


def test_axial_at_b_zero_keeps_relative_digits_at_its_domain_end(ctx30):
    # the t form reads rel_err 1.9e-12 here, where pi/(2 10^10) lies
    # 10 orders above quad_target
    assert verify("I6", {"b": 0, "c": "1e10"}, ctx30).rel_err <= ctx30.mp.mpf("1e-20")


@pytest.mark.parametrize("digits", [30, 50, 100])
@pytest.mark.parametrize("c", ["1", "2", "10", "1000", "1e10"])
def test_routed_axial_points_verify_within_their_estimate(digits, c):
    report = verify("I6", {"b": 0, "c": c}, PrecisionContext(digits))
    assert report.passed
    assert report.abs_err <= 10 * report.err_estimate


def test_axial_elementary_limit(ctx):
    # as c -> 0 the identity degenerates to the elementary value pi/(2(b+1))
    mp = ctx.mp
    report = verify("I6", {"b": 1, "c": mp.mpf(10) ** -8}, ctx)
    assert report.passed
    assert abs(report.lhs_value - mp.pi / 4) <= mp.mpf(10) ** -6


def test_axial_decay_trend(ctx):
    # scaled residual |lhs - rhs| sqrt(b^2+c^2) stays at quadrature noise
    # along b = c = 2^j
    mp = ctx.mp
    for j in range(3, 9):
        b = mp.mpf(2) ** j
        report = verify("I6", {"b": b, "c": b}, ctx)
        assert report.passed
        scaled = report.abs_err * mp.sqrt(2 * b * b)
        assert scaled <= mp.mpf(10) ** -30


def test_param_validation(ctx):
    with pytest.raises(OutOfDomainError):
        verify("I1", {"a": 2}, ctx)
    with pytest.raises(OutOfDomainError):
        verify("I1", {}, ctx)
    with pytest.raises(OutOfDomainError):
        verify("I8", {"a": 1}, ctx)
    with pytest.raises(OutOfDomainError):
        verify("I12", {"variant": 2}, ctx)
    with pytest.raises(OutOfDomainError):
        verify("I12", {"variant": "0.5"}, ctx)
    for flag in (True, False):  # a bool is no integer choice
        with pytest.raises(OutOfDomainError):
            verify("I12", {"variant": flag}, ctx)
    # nor a number in an interval, though mp.mpf reads True as 1
    for rid, params in [("I1", {"a": True}), ("I11", {"a": False}),
                        ("I6", {"b": True, "c": False}), ("I9", {"c": True})]:
        with pytest.raises(OutOfDomainError):
            verify(rid, params, ctx)
    with pytest.raises(OutOfDomainError):
        verify("I1-ext", {"a": 1}, ctx)  # excluded critical point
    with pytest.raises(DomainError):
        verify("I99", {}, ctx)
    # non-finite values are out of every domain, bounded or not
    for rid, params in [("I1", {"a": "nan"}), ("I1-ext", {"a": "inf"}),
                        ("I1-ext", {"a": float("inf")}), ("I6", {"b": "inf", "c": 1}),
                        ("I6", {"b": 1, "c": "-inf"}), ("I11", {"a": "nan"}),
                        ("I12", {"variant": float("inf")}), ("I12", {"variant": float("nan")})]:
        with pytest.raises(OutOfDomainError):
            verify(rid, params, ctx)


# (row, params, summed function): series rows whose term count used to be floored at 60
SERIES_ROWS = [("I12", {"variant": 1}, "ramanujan_sum"), ("I11", {"a": "0.05"}, "clausen_sum"),
               ("I13", {"a": "0.05"}, "legendre_sum")]


@pytest.mark.parametrize("digits", [30, 50, 100])
@pytest.mark.parametrize("rid,params,name", SERIES_ROWS, ids=[r[0] for r in SERIES_ROWS])
def test_series_rows_sum_only_the_terms_their_digits_need(monkeypatch, digits, rid, params, name):
    # the row's value is the sum at its own count, and equals the sum at 60 terms
    import multiell.identities as identities
    summed, counts = getattr(identities, name), []

    def recording(first, n_terms, ctx):
        counts.append(n_terms)
        return summed(first, n_terms, ctx)
    monkeypatch.setattr(identities, name, recording)
    ctx = PrecisionContext(digits)
    report = verify(rid, params, ctx)
    assert report.passed
    [n_terms] = counts
    assert n_terms < 60
    if (rid, digits) == ("I12", 50):
        assert n_terms == 31
    first = tuple(SeriesId)[1] if rid == "I12" else ctx.mp.mpf(params["a"])
    value = report.rhs_value if rid == "I13" else report.lhs_value
    assert value == summed(first, n_terms, ctx) == summed(first, 60, ctx)


def test_sweep_grid(ctx30):
    reports = sweep("I1", "a", 0, "0.9", 10, ctx30)
    assert len(reports) == 10
    assert all(r.passed for r in reports)
    mp = ctx30.mp
    assert reports[0].params["a"] == 0
    assert abs(reports[-1].params["a"] - mp.mpf("0.9")) <= mp.mpf(10) ** -28
    assert abs(reports[1].params["a"] - mp.mpf("0.1")) <= mp.mpf(10) ** -28


def test_batched_sweep_matches_single_verifies(ctx):
    # the sweep integrates all nine points as one vector integral
    reports = sweep("I1", "a", "0.1", "0.8", 9, ctx)
    assert len(reports) == 9
    for r in reports:
        single = verify("I1", {"a": r.params["a"]}, ctx)
        assert r.passed and single.passed
        assert abs(r.lhs_value - single.lhs_value) <= ctx.pass_tol
        assert abs(r.lhs_value - r.rhs_value) <= 10 * r.err_estimate
        assert r.rhs_value == single.rhs_value


# sweeps whose last grid point, lo + (hi - lo) k/(steps - 1), rounded above
# a closed domain end
SWEEPS_TO_AN_END = [(30, "I11", "a", "0", "0.95", 4), (30, "I1", "a", "0.3", "1", 4),
                    (30, "I13", "a", "0", "0.95", 4), (30, "I9", "c", "1e-10", "1e10", 8),
                    (50, "I11", "a", "0", "0.95", 20)]


@pytest.mark.parametrize("digits, rid, name, lo, hi, steps", SWEEPS_TO_AN_END,
                         ids=[f"{d}-{r}-{lo}-{hi}-{n}" for d, r, _, lo, hi, n in SWEEPS_TO_AN_END])
def test_sweep_ends_at_the_domain_end(digits, rid, name, lo, hi, steps):
    ctx = PrecisionContext(digits)
    reports = sweep(rid, name, lo, hi, steps, ctx)
    assert len(reports) == steps and all(r.passed for r in reports)
    assert reports[0].params[name] == ctx.mp.mpf(lo)
    assert reports[-1].params[name] == ctx.mp.mpf(hi)


def test_sweep_validation(ctx):
    with pytest.raises(DomainError):
        sweep("I1", "a", 0, 0, 2, ctx)  # degenerate range
    with pytest.raises(DomainError):
        sweep("I1", "a", 0, 0.9, 1, ctx)  # too few steps
    with pytest.raises(OutOfDomainError):
        sweep("I1", "b", 0, 1, 3, ctx)  # no such parameter
    with pytest.raises(OutOfDomainError):
        sweep("I9", "c", 0, 2, 3, ctx)  # endpoint below the domain


def test_export_csv_shape(ctx30):
    report = verify("I8", {}, ctx30)
    blob = export([report], "csv")
    lines = blob.decode().splitlines()
    assert len(lines) == 2
    assert lines[0] == "id,params,lhs,rhs,abs_err,rel_err,passed,digits,wall_ms"
    fields = lines[1].split(",")
    assert fields[0] == "I8"
    assert not fields[4].startswith("-")  # abs_err is a nonnegative decimal
    assert blob.endswith(b"\n")
    assert b"\r" not in blob


def test_export_json_round_trip(ctx30):
    reports = [verify("I8", {}, ctx30), verify("I1", {"a": "0.5"}, ctx30)]
    blob = export(reports, "json")
    loaded = json.loads(blob)
    assert [row["id"] for row in loaded] == ["I8", "I1"]
    assert loaded[1]["params"]["a"] == "0.5"
    assert json.dumps(loaded, indent=2).encode() == blob
    assert loaded[0]["passed"] is True
    assert loaded[0]["digits"] == 30


def test_export_rejects_empty_and_unknown(ctx30):
    with pytest.raises(DomainError):
        export([], "json")
    report = verify("I8", {}, ctx30)
    with pytest.raises(DomainError):
        export([report], "xml")


def test_verify_is_deterministic(ctx30):
    r1 = verify("I1", {"a": "0.5"}, ctx30)
    r2 = verify("I1", {"a": "0.5"}, ctx30)
    assert r1.lhs_value == r2.lhs_value
    assert r1.rhs_value == r2.rhs_value
    assert r1.abs_err == r2.abs_err
    assert r1.err_estimate == r2.err_estimate


def test_concurrent_verifications_match_sequential(ctx30):
    # pure functions over isolated contexts: threads must reproduce the
    # sequential values bit for bit
    from concurrent.futures import ThreadPoolExecutor

    from multiell import PrecisionContext

    jobs = [("I8", {}), ("I2", {}), ("I1", {"a": "0.5"}), ("I9", {"c": 1})]
    sequential = [verify(i, p, ctx30).lhs_value for i, p in jobs]
    with ThreadPoolExecutor(max_workers=4) as pool:
        futures = [pool.submit(verify, i, p, PrecisionContext(30)) for i, p in jobs]
        threaded = [f.result().lhs_value for f in futures]
    assert threaded == sequential


def test_two_routes_to_the_2sqrt2_constant(ctx):
    # quadrature route and bridged-series route must reach pi/(4 sqrt 2)
    # independently
    mp = ctx.mp
    assert verify("I2", {}, ctx).passed
    bridge = linear_bridge(SeriesId.RAMANUJAN_2SQRT2, ctx)
    bridged = (bridge.alpha * clausen_sum(bridge.a_star, 400, ctx)
               + bridge.beta * clausen_sum_da(bridge.a_star, 400, ctx))
    assert abs(mp.pi ** 2 / 16 * bridged - mp.pi / (4 * mp.sqrt(2))) <= ctx.pass_tol


def test_two_routes_to_the_8sqrt2_constant(ctx):
    mp = ctx.mp
    assert verify("I10", {}, ctx).passed
    bridge = linear_bridge(SeriesId.RAMANUJAN_4SQRT2, ctx)
    bridged = (bridge.alpha * clausen_sum(bridge.a_star, 400, ctx)
               + bridge.beta * clausen_sum_da(bridge.a_star, 400, ctx))
    assert abs(mp.pi ** 2 / 64 * bridged - mp.pi / (8 * mp.sqrt(2))) <= ctx.pass_tol


@pytest.mark.parametrize("a_str", ["0.1", "0.5", "0.9"])
def test_cross_route_agreement(ctx, a_str):
    # quadrature, projection series, and closed form agree pairwise
    mp = ctx.mp
    a = mp.mpf(a_str)
    quad_route = verify("I13", {"a": a}, ctx)
    closed_route = verify("I1", {"a": a}, ctx)
    assert quad_route.passed and closed_route.passed
    series_value = legendre_sum(a, 700, ctx)
    assert abs(series_value - closed_route.rhs_value) <= ctx.pass_tol


def _closed_ends(spec):
    """spec's choices, or its finite closed interval endpoints, as verify takes them
    (a finite hi is always closed)."""
    if spec.choices is not None:
        return list(spec.choices)
    ends = ([] if spec.lo_open else [spec.lo]) + [spec.hi]
    return [str(end) for end in ends if end is not None]


# every combination of each row's finite closed endpoints, read from its
# ParamSpecs, so that a domain edit moves the endpoints tested with it
ENDPOINTS = [(rec.id, dict(zip(rec.param_names(), ends)))
             for rec in list_identities() if rec.params
             for ends in itertools.product(*map(_closed_ends, rec.params))]
ENDPOINTS += [("I6", {"b": "0", "c": "1"}), ("I6", {"b": "0", "c": "2"}),
              ("I6", {"b": "1", "c": "0"}),
              # the near-singular band of I6: K sharply peaked at t = c
              ("I6", {"b": "0.01", "c": "1"}), ("I6", {"b": "0.01", "c": "2"})]


@pytest.mark.parametrize("rid, params", ENDPOINTS,
                         ids=[f"{r}-" + "-".join(map(str, p.values())) for r, p in ENDPOINTS])
def test_every_closed_endpoint_verifies(ctx, rid, params):
    # each finite closed ParamSpec endpoint lies in its row's domain
    report = verify(rid, params, ctx)
    assert report.passed
    if report.err_estimate is not None:
        assert report.abs_err <= 10 * report.err_estimate


@pytest.mark.parametrize("rid, params", [
    ("I9", {"c": "1e-100"}), ("I9", {"c": "9.9e-11"}), ("I9", {"c": "1e20"}),
    ("I6", {"b": "1e15", "c": "1"}), ("I6", {"b": "0", "c": "1.01e10"})])
def test_semi_infinite_rows_refuse_points_past_their_measured_domain(ctx30, rid, params):
    # past these bounds the exp-sinh panel can converge to a wrong value
    with pytest.raises(OutOfDomainError, match="above domain|below domain"):
        verify(rid, params, ctx30)


# rows whose two sides, rounded to 50 digits, agree exactly: abs_err must
# still show the left-hand side's own error
HONEST_ERRORS = [("I2", {}), ("I3", {}), ("I6", {"b": "1", "c": "1"}), ("I8", {}),
                 ("I9", {"c": "1"})]


@pytest.mark.parametrize("rid, params", HONEST_ERRORS,
                         ids=[f"{r}-" + "-".join(map(str, p.values())) for r, p in HONEST_ERRORS])
def test_abs_err_is_the_unrounded_left_hand_sides_error(rid, params):
    # abs_err is the LHS's own error, against the closed form 40 digits higher
    ctx, ref = PrecisionContext(50), PrecisionContext(90)
    rec = get_identity(rid)
    seen = []

    def lhs(ctx, points):
        seen.extend(rec.lhs(ctx, points))
        return seen
    report, = _verify_points(dataclasses.replace(rec, lhs=lhs), [_validated(rec, params, ctx)], ctx)
    [(value, _)] = seen
    truth = rec.rhs(ref, {k: ref.mp.mpf(v) for k, v in params.items()})
    error = abs(ref.mp.convert(value) - truth)
    assert report.abs_err > 0
    assert abs(report.abs_err - error) <= ref.mp.mpf(10) ** -(ctx.digits + 15)


ESTIMATED = [(50, "I8", {}), (50, "I1", {"a": "0.5"}), (30, "I9", {"c": "1e10"}),
             (100, "I6", {"b": "1000", "c": "1000"}), (300, "I6", {"b": "0.001", "c": "1"})]


@pytest.mark.parametrize("digits, rid, params", ESTIMATED,
                         ids=[f"{r}-{d}-" + "-".join(map(str, p.values())) for d, r, p in ESTIMATED])
def test_reported_estimate_is_two_digits_rounded_up(monkeypatch, digits, rid, params):
    # a last-change estimate holds no more digits than that; it is never
    # reported below the quadrature's own estimate
    import multiell.identities as identities
    results = []

    def recording(spec, ctx, **kw):
        results.append(integrate(spec, ctx, **kw))
        return results[-1]
    monkeypatch.setattr(identities, "integrate", recording)
    ctx = PrecisionContext(digits)
    report = verify(rid, params, ctx)
    [result] = results
    estimate = result.err_estimate  # one component on I1, one coefficient 1
    assert report.err_estimate >= (estimate[0] if isinstance(estimate, tuple) else estimate)
    mantissa = ctx.mp.nstr(report.err_estimate, digits).split("e")[0]
    assert len(mantissa.replace(".", "").strip("0")) <= 2


# I6 and I9 over their domains, integrate's unrounded value against the
# closed form formed 30 digits higher, b and c included
MAGNITUDES = ("1e-10", "1e-5", "1", "1e5", "1e10")
AXIAL_GRID = [("I9", "0", c) for c in MAGNITUDES]
AXIAL_GRID += [("I6", b, c) for b in ("0", "1", "1e10") for c in MAGNITUDES]


@pytest.mark.parametrize("digits", [30, 50])
@pytest.mark.parametrize("rid, b, c", AXIAL_GRID,
                         ids=[f"{r}-{b}-{c}" for r, b, c in AXIAL_GRID])
def test_axial_error_before_rounding_is_within_estimate_and_target(digits, rid, b, c):
    ctx = PrecisionContext(digits)
    mp = ctx.mp
    b, c = mp.mpf(b), mp.mpf(c)
    spec = (kernels.axial_t_spec(b, c) if rid == "I6" else
            kernels.semi_infinite_spec(kernels.re_k_semi_infinite_kernel, c))
    result = integrate(spec, ctx)
    ref = ctx.boosted(30).mp
    b, c = ref.convert(b), ref.convert(c)
    error = abs(ref.convert(result.value) - ref.pi / (2 * ref.sqrt((b + 1) ** 2 + c * c)))
    assert error <= 10 * result.err_estimate
    assert error <= ctx.quad_target


# Every catalog row once at a low and a high working precision, endpoints
# included.  I3-I5 verify at 300 digits as well.
DIGITS_AXIS = [("I1", {"a": "0.5"}), ("I1", {"a": "1"}), ("I1-ext", {"a": "2"}),
               ("I2", {}), ("I3", {}), ("I4", {}), ("I5", {}),
               ("I6", {"b": "1", "c": "1"}), ("I6", {"b": "0", "c": "1"}),
               ("I7", {}), ("I8", {}), ("I9", {"c": "1"}), ("I10", {}),
               ("I11", {"a": "0.5"}), ("I11", {"a": "0.95"}),
               ("I12", {"variant": 0}), ("I12", {"variant": 1}), ("I13", {"a": "0.95"}),
               # a^2 below the float range: the term count must not round it to 0
               ("I11", {"a": "1e-200"}), ("I13", {"a": "1e-200"}),
               # I6 integrates in t = tan th: the ends of its domain in b and c
               ("I6", {"b": "0", "c": "1e-8"}), ("I6", {"b": "1e-8", "c": "0"}),
               ("I6", {"b": "0", "c": "10"}), ("I6", {"b": "1000", "c": "1000"}),
               ("I6", {"b": "0.001", "c": "1"})]


@pytest.mark.parametrize("digits", [30, 100])
@pytest.mark.parametrize("rid, params", DIGITS_AXIS,
                         ids=[f"{r}-" + "-".join(map(str, p.values())) for r, p in DIGITS_AXIS])
def test_every_row_verifies_across_digits(digits, rid, params):
    report = verify(rid, params, PrecisionContext(digits))
    assert report.passed
    if report.err_estimate is not None:
        assert report.abs_err <= 10 * report.err_estimate


@pytest.mark.parametrize("digits", [30, 50, 100, 300])
@pytest.mark.parametrize("a", ["1.000001", "2", "10", "1e10", "1e20", "1e100", "1e300"])
def test_i1_ext_keeps_relative_digits_however_large_a(digits, a):
    # I1(a) is near pi^2/(4a) for large a, below the panel's absolute
    # fixed-point unit past a = 1e(digits + 20): a sum at a itself reads 0
    ctx = PrecisionContext(digits)
    report = verify("I1-ext", {"a": a}, ctx)
    assert report.passed
    assert report.rel_err <= ctx.mp.mpf(10) ** -(digits - 2)
