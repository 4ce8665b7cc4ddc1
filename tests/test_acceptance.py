"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v` (add -s to stream the
per-criterion lines).  Every tolerance is pinned here, at digits = 50
unless a criterion states otherwise.
"""

import time

import pytest

from multiell import (PrecisionContext, SeriesId, ellipk, lambda_star,
                      laplace_residual, legendre_sum, linear_bridge,
                      ode_annihilator_residual, orthogonality_gram,
                      ramanujan_sum, run_selftest, singular_value_residual,
                      sweep, verify)

A_GRID = tuple(f"0.{k}" for k in range(1, 10))


def report(criterion, passed, detail=""):
    print(f"ACCEPTANCE {criterion}: {'PASS' if passed else 'FAIL'}  {detail}")
    assert passed, f"criterion {criterion}: {detail}"


def test_criterion_01_plain_kernel_value_and_runtime(ctx):
    t0 = time.perf_counter()
    r = verify("I8", {}, ctx)
    elapsed = time.perf_counter() - t0
    err = abs(r.lhs_value - ctx.mp.pi ** 2 / 4)
    ok = r.passed and err <= ctx.mp.mpf(10) ** -35 and elapsed <= 10
    report(1, ok, f"abs err {ctx.mp.nstr(err, 3)}, {elapsed:.2f}s")


def test_criterion_02_parameter_family(ctx):
    worst = 0.0
    for a in A_GRID + ("1.5", "2", "4"):
        ident = "I1" if float(a) <= 1 else "I1-ext"
        t0 = time.perf_counter()
        r = verify(ident, {"a": a}, ctx)
        elapsed = time.perf_counter() - t0
        worst = max(worst, elapsed)
        if not (r.passed and elapsed <= 30):
            report(2, False, f"{ident} at a={a}: passed={r.passed}, {elapsed:.1f}s")
    report(2, True, f"12 points verified, slowest {worst:.2f}s")


def test_criterion_03_rational_weight_constants(ctx):
    mp = ctx.mp
    r2 = verify("I2", {}, ctx)
    r10 = verify("I10", {}, ctx)
    ok = (r2.passed and r10.passed
          and abs(r2.rhs_value - mp.pi / (4 * mp.sqrt(2))) <= mp.mpf(10) ** -48
          and abs(r10.rhs_value + mp.pi / (8 * mp.sqrt(2))) <= mp.mpf(10) ** -48)
    report(3, ok, f"abs errs {mp.nstr(r2.abs_err, 3)}, {mp.nstr(r10.abs_err, 3)}")


def test_criterion_04_singular_value_identities(ctx):
    mp = ctx.mp
    r3 = verify("I3", {}, ctx)
    ok = r3.passed
    details = [mp.nstr(r3.abs_err, 3)]
    for ident in ("I4", "I5"):
        r = verify(ident, {}, ctx)
        imag_ok = abs(mp.convert(r.lhs_value).imag) <= 10 * r.err_estimate
        ok = ok and r.passed and imag_ok
        details.append(mp.nstr(r.abs_err, 3))
    report(4, ok, "abs errs " + ", ".join(details))


def test_criterion_05_axial_family(ctx):
    mp = ctx.mp
    ok = True
    for b in ("0.5", "1", "2"):
        for c in ("0.5", "1", "2"):
            ok = ok and verify("I6", {"b": b, "c": c}, ctx).passed
    ok = ok and verify("I7", {}, ctx).passed
    for c in ("0.5", "1", "2"):
        ok = ok and verify("I9", {"c": c}, ctx).passed
    report(5, ok, "3x3 axial grid, special case, and 3 semi-infinite points")


def test_criterion_06_ramanujan_series_and_bridges(ctx):
    mp = ctx.mp
    e1 = abs(ramanujan_sum(SeriesId.RAMANUJAN_2SQRT2, 200, ctx) - 2 * mp.sqrt(2) / mp.pi)
    e2 = abs(ramanujan_sum(SeriesId.RAMANUJAN_4SQRT2, 400, ctx) - 4 * mp.sqrt(2) / mp.pi)
    ok = e1 <= ctx.pass_tol and e2 <= ctx.pass_tol
    # linear_bridge raises if the termwise match fails through n = 5
    for sid in (SeriesId.RAMANUJAN_2SQRT2, SeriesId.RAMANUJAN_4SQRT2):
        bridge = linear_bridge(sid, ctx)
        ok = ok and bridge.a_star > 0
    report(6, ok, f"series errs {mp.nstr(e1, 3)}, {mp.nstr(e2, 3)}; bridges consistent")


def test_criterion_07_orthogonality_gram(ctx):
    mp = ctx.mp
    gram = orthogonality_gram(12, ctx)
    worst = mp.zero
    for n in range(13):
        for m in range(13):
            exact = mp.one / (2 * n + 1) if n == m else mp.zero
            worst = max(worst, abs(gram[n][m] - exact))
    ok = worst <= 10 * ctx.quad_target
    report(7, ok, f"max entry error {mp.nstr(worst, 3)}")


def test_criterion_08_annihilator_grids_and_controls(ctx):
    mp = ctx.mp
    ok = True
    for a in A_GRID:
        ok = ok and ode_annihilator_residual(mp.mpf(a), ctx).passed
    for theta_div in (6, 4, 3):
        for b in ("0.5", "1", "2"):
            for c in ("0.5", "1", "2"):
                res = laplace_residual(mp.pi / theta_div, mp.mpf(b), mp.mpf(c), ctx)
                ok = ok and res.passed
    clean_ode = ode_annihilator_residual(mp.mpf("0.5"), ctx)
    bad_ode = ode_annihilator_residual(mp.mpf("0.5"), ctx, corrupted=True)
    ratio_ode = bad_ode.residual / max(clean_ode.residual, mp.mpf(10) ** -100)
    clean_lap = laplace_residual(mp.pi / 4, 1, 1, ctx)
    bad_lap = laplace_residual(mp.pi / 4, 1, 1, ctx, corrupted=True)
    ratio_lap = bad_lap.residual / max(clean_lap.residual, mp.mpf(10) ** -100)
    ok = ok and ratio_ode >= 10 ** 6 and ratio_lap >= 10 ** 6

    def shown(clean, ratio):
        # a clean residual below the floor 1e-100 was replaced by it
        if clean.residual < mp.mpf(10) ** -100:
            return (f">= {mp.nstr(ratio, 3)} (lower bound: clean residual"
                    f" {mp.nstr(clean.residual, 3)} is below the floor 1e-100)")
        return mp.nstr(ratio, 3)
    report(8, ok, f"control ratios {shown(clean_ode, ratio_ode)}, {shown(clean_lap, ratio_lap)}")


def test_criterion_09_transform_and_singular_values(ctx):
    mp = ctx.mp
    worst = mp.zero
    for tenths in range(1, 10):
        k = mp.mpf(tenths) / 10
        kp = mp.sqrt(1 - k * k)
        worst = max(worst, abs(kp * ellipk(k * k, ctx)
                               - ellipk(-k * k / (1 - k * k), ctx)))
    ok = worst <= ctx.pass_tol
    for r in (3, 4, 7):
        ok = ok and singular_value_residual(r, ctx) <= ctx.pass_tol
    report(9, ok, f"max transform residual {mp.nstr(worst, 3)}")


def test_criterion_10_cross_route(ctx):
    mp = ctx.mp
    worst = mp.zero
    for a_str in ("0.1", "0.3", "0.5"):
        quad = verify("I1", {"a": a_str}, ctx).lhs_value
        series = legendre_sum(mp.mpf(a_str), 300, ctx)
        worst = max(worst, abs(quad - series))
    ok = worst <= ctx.pass_tol
    report(10, ok, f"max route gap {mp.nstr(worst, 3)}")


def test_criterion_11_selftest_budgets():
    sink = lambda *_: None
    t0 = time.perf_counter()
    full = run_selftest(digits=50, quick=False, write=sink)
    t_full = time.perf_counter() - t0
    t0 = time.perf_counter()
    quick = run_selftest(digits=50, quick=True, write=sink)
    t_quick = time.perf_counter() - t0
    ok = (all(r.passed for r in full) and t_full <= 900
          and all(r.passed for r in quick) and t_quick <= 120)
    report(11, ok, f"full {t_full:.1f}s (cap 900), quick {t_quick:.1f}s (cap 120)")
