import dataclasses
import json

import pytest

from multiell import (DomainError, OutOfDomainError, PrecisionContext,
                      SeriesId, clausen_sum, clausen_sum_da, export,
                      legendre_sum, linear_bridge, list_identities, sweep,
                      verify)
from multiell.identities import _verify_points, get_identity
from multiell.quadrature import MAX_LEVEL


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
    assert [p.describe() for p in rows["I6"].params] == ["b in [0, inf)", "c in [0, inf)"]
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
        row = dataclasses.replace(rec, lhs=lambda ctx, points, max_level: [(lhs, mp.mpf("1e-45"))])
        report, = _verify_points(row, [{}], ctx30, MAX_LEVEL)
        assert report.passed is passed


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
    with pytest.raises(OutOfDomainError):
        verify("I1-ext", {"a": 1}, ctx)  # excluded critical point
    with pytest.raises(DomainError):
        verify("I99", {}, ctx)


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


def test_sweep_validation(ctx):
    with pytest.raises(DomainError):
        sweep("I1", "a", 0, 0, 2, ctx)  # degenerate range
    with pytest.raises(DomainError):
        sweep("I1", "a", 0, 0.9, 1, ctx)  # too few steps
    with pytest.raises(OutOfDomainError):
        sweep("I1", "b", 0, 1, 3, ctx)  # no such parameter
    with pytest.raises(OutOfDomainError):
        sweep("I9", "c", 0, 2, 3, ctx)  # endpoint outside the open domain


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


ENDPOINTS = [("I1", {"a": "0"}), ("I1", {"a": "1"}),
             ("I6", {"b": "0", "c": "0"}), ("I6", {"b": "0", "c": "1"}),
             ("I6", {"b": "0", "c": "2"}), ("I6", {"b": "1", "c": "0"}),
             ("I11", {"a": "0"}), ("I11", {"a": "0.95"}),
             ("I13", {"a": "0"}), ("I13", {"a": "0.95"}),
             ("I12", {"variant": 0}), ("I12", {"variant": 1}),
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


# Every catalog row once at a low and a high working precision, endpoints
# included.  At 300 digits I3-I5 fail: the gamma function's fixed guard
# digits do not cover its Spouge sum's cancellation there.
DIGITS_AXIS = [("I1", {"a": "0.5"}), ("I1", {"a": "1"}), ("I1-ext", {"a": "2"}),
               ("I2", {}), ("I3", {}), ("I4", {}), ("I5", {}),
               ("I6", {"b": "1", "c": "1"}), ("I6", {"b": "0", "c": "1"}),
               ("I7", {}), ("I8", {}), ("I9", {"c": "1"}), ("I10", {}),
               ("I11", {"a": "0.5"}), ("I11", {"a": "0.95"}),
               ("I12", {"variant": 0}), ("I12", {"variant": 1}), ("I13", {"a": "0.95"}),
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
