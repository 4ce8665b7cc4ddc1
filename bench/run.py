"""multiell benchmark: one closed-loop, single-threaded driver.

    python3 bench/run.py --workload catalog --seed 1 --seconds 20 --trace 0

One caller issues the next op only after the last one returned.  The
timed phase runs whole passes over the workload's op list until another
pass would overrun --seconds (always at least one pass).  Every op's
output is then checked against independent references (see
workloads.py).  With --trace 0 the run reports the end-to-end metrics;
with --trace 1 it runs the same timed phase untraced, then one traced
pass, and reports the per-layer metrics and the tracing overhead.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics; the lines before it are for people.
"""

from __future__ import annotations

import argparse
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import mpmath

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
SETUP_REPEATS = 5
MICRO_REPEATS = 7

import tracing  # noqa: E402
import workloads  # noqa: E402


def _load_library():
    if not (SRC / "multiell" / "__init__.py").is_file():
        raise SystemExit(f"bench: no multiell package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    return workloads.load()


def _setup_sample(name: str) -> float:
    """Set-up seconds measured in a fresh interpreter."""
    out = subprocess.run([sys.executable, str(BENCH / "setup_probe.py"), name],
                         capture_output=True, text=True, check=True, timeout=120)
    return float(out.stdout.strip().splitlines()[-1])


def _execute(op, ml, ctx, errors):
    """(latency seconds, exception name or None, Outcome or None)."""
    t0 = time.perf_counter()
    try:
        out = op.call(ml, ctx)
    except errors as exc:
        return time.perf_counter() - t0, type(exc).__name__, None
    return time.perf_counter() - t0, None, out


def _timed_phase(wl, ml, ctx, seconds, errors, probe, probes):
    """Whole passes until the next one would overrun `seconds` of busy time.

    Between passes, `probes` set-up samples are taken at evenly spaced
    points of the busy time, so that they see the machine as the passes
    do; their own time is not counted.
    """
    passes, samples, busy = [], [], 0.0
    while True:
        t0 = time.perf_counter()
        results = [_execute(op, ml, ctx, errors) for op in wl.ops]
        pass_s = time.perf_counter() - t0
        passes.append((pass_s, results))
        busy += pass_s
        while len(samples) < probes and busy >= seconds * len(samples) / probes:
            samples.append(probe())
        if busy + pass_s > seconds:
            break
    samples += [probe() for _ in range(probes - len(samples))]
    return passes, samples


def _traced_pass(wl, ml, ctx, errors):
    tracer = tracing.Tracer()
    undo = tracing.install(tracer)
    try:
        t0 = time.perf_counter()
        results = [tracer.run_op(op.label, lambda op=op: _execute(op, ml, ctx, errors))
                   for op in wl.ops]
        traced_s = time.perf_counter() - t0
    finally:
        tracing.uninstall(undo)
    return tracer, traced_s, results


def _failed(op, result) -> bool:
    _, error, out = result
    return error is not None or out.passed != op.expect_pass


def _same(a, b) -> bool:
    return a[1] == b[1] and a[2] == b[2]


def _p90(values):
    return statistics.quantiles(values, n=10)[-1] if len(values) > 1 else values[0]


def _micro_us(fn, calls: int) -> float:
    """Median microseconds per call of fn over MICRO_REPEATS batches."""
    per_call = []
    for _ in range(MICRO_REPEATS):
        t0 = time.perf_counter()
        for _ in range(calls):
            fn()
        per_call.append((time.perf_counter() - t0) / calls * 1e6)
    return statistics.median(per_call)


def _k_us(ml, dps: int) -> float:
    """AGM K at one precision, over nine parameters in (0, 1)."""
    from mpmath.ctx_mp import MPContext
    k = sys.modules["multiell.elliptic"].ellipk_real_mp
    mp = MPContext()
    mp.dps = dps
    ms = [mp.mpf(j) / 10 for j in range(1, 10)]
    return _micro_us(lambda: [k(mp, m) for m in ms], 20) / len(ms)


def end_to_end(wl, passes, attempted, failed, checks, setup, rss_mb, notes):
    # an op's latency is its mean over its runs in the timed phase: single
    # samples swing with the machine's fast and slow spells.  Each workload
    # has an odd number of distinct ops, so that the median is one op's mean.
    samples = {}
    for _, results in passes:
        for op, r in zip(wl.ops, results):
            samples.setdefault(op.label, []).append(r[0])
    lat = [statistics.fmean(v) for v in samples.values()]
    completed = sum(r[1] is None for _, results in passes for r in results)
    busy = sum(p for p, _ in passes)
    digits = [c.digits for c in checks if c is not None and c.digits is not None]
    bounds = [b for c in checks if c is not None for b in c.bounds]
    if not bounds:
        notes.append("err_bound_share: n/a (no quadrature values); reported as 1")
    notes.append(f"latency quantiles over {len(lat)} distinct ops, each the mean of its "
                 f"{attempted / len(lat):.1f} runs on average")
    return {
        "setup_s": (statistics.median(setup), "s"),
        "ops_per_s": (completed / busy, "1/s"),
        "latency_p50_ms": (statistics.median(lat) * 1e3, "ms"),
        "latency_p90_ms": (_p90(lat) * 1e3, "ms"),
        "ok_share": ((attempted - failed) / attempted, "share"),
        "min_digits": (min(digits), "digits"),
        "err_bound_share": (sum(bounds) / len(bounds) if bounds else 1.0, "share"),
        "peak_rss_mb": (rss_mb, "MB"),
    }


def per_layer(ml, wl, tracer, traced_s, untraced_pass_s, ref_mp, notes):
    st = tracing.layer_stats(tracer)
    get = lambda name: st.get(name, tracing.LayerStats())  # noqa: E731
    wall = get(tracing.OP).total
    k, quad, ker = get("elliptic.k"), get("quadrature.integrate"), get(tracing.INTEGRAND)
    series, gam = get("series.sum"), get("gammafn.gamma")
    integrate_spans = tracing.spans_named(tracer, "quadrature.integrate")
    errors = [i for i in integrate_spans if i in tracer.errors]
    cap_hits = sum(tracer.errors.get(i) == "NonConvergenceError" or
                   tracer.levels.get(i, 0) >= ml.MAX_LEVEL for i in integrate_spans)
    deepest = max([ml.MAX_LEVEL if tracer.errors.get(i) == "NonConvergenceError"
                   else tracer.levels.get(i, 0) for i in integrate_spans], default=0)
    gamma_digits = [workloads.agreement(v, ref_mp.gamma(ref_mp.mpf(x)), d, ref_mp)
                    for (x, d), v in tracer.gamma_args.items()]
    if tracer.missing:
        notes.append(f"entry points not found, so not traced: {', '.join(tracer.missing)}")
    spans = {span for _, _, span in tracing.HOOKS} | {tracing.INTEGRAND, tracing.RHS}
    silent = sorted(spans - set(st))
    if silent:
        notes.append(f"not called in this workload (their metrics read 0): {', '.join(silent)}")
    if not gamma_digits:
        notes.append("gammafn.min_digits: n/a (gamma not called); reported as 0")
    if not errors:
        notes.append("quadrature.time_to_error_s: n/a (no integrate call raised); reported as 0")
    return {
        "elliptic.k_calls": (k.count, "count"),
        "elliptic.k_distinct_share": (len(tracer.k_keys) / k.count if k.count else 0.0, "share"),
        "elliptic.k_us": (k.mean() * 1e6, "us"),
        "elliptic.k_self_share": (k.own / wall, "share"),
        "elliptic.k_us_70d": (_k_us(ml, 70), "us"),
        "elliptic.k_us_140d": (_k_us(ml, 140), "us"),
        "quadrature.integrate_calls": (quad.count, "count"),
        "quadrature.integrand_evals": (ker.count, "count"),
        "quadrature.integrate_ms": (quad.mean() * 1e3, "ms"),
        "quadrature.self_share": (quad.own / wall, "share"),
        "quadrature.max_level": (deepest, "level"),
        "quadrature.level_cap_hits": (cap_hits, "count"),
        "quadrature.time_to_error_s": (statistics.median(
            [tracer.end[i] - tracer.start[i] for i in errors] or [0.0]), "s"),
        "kernels.eval_us": (ker.mean() * 1e6, "us"),
        "kernels.self_share": (ker.own / wall, "share"),
        "series.calls": (series.count, "count"),
        "series.terms": (tracer.series_terms, "count"),
        "series.terms_per_s": (tracer.series_terms / series.total if series.total else 0.0, "1/s"),
        "gammafn.calls": (gam.count, "count"),
        "gammafn.us": (gam.mean() * 1e6, "us"),
        "gammafn.min_digits": (min(gamma_digits, default=0.0), "digits"),
        "singular.rhs_constant_ms": (get("singular.rhs_constant").mean() * 1e3, "ms"),
        "singular.residual_ms": (get("singular.residual").mean() * 1e3, "ms"),
        "legendre.gram_s": (get("legendre.gram").mean(), "s"),
        "diffop.ode_residual_s": (get("diffop.ode_residual").mean(), "s"),
        "diffop.laplace_residual_ms": (get("diffop.laplace_residual").mean() * 1e3, "ms"),
        "diffop.closed_form_ms": (get("diffop.closed_form").mean() * 1e3, "ms"),
        "fd.richardson_calls": (get("fd.richardson").count, "count"),
        "fd.richardson_us": (get("fd.richardson").mean() * 1e6, "us"),
        "identities.verify_self_ms": (get("identities.verify").own /
                                      max(get("identities.verify").count, 1) * 1e3, "ms"),
        "identities.rhs_ms": (get(tracing.RHS).mean() * 1e3, "ms"),
        "precision.context_new_us": (_micro_us(lambda: ml.PrecisionContext(wl.digits), 200), "us"),
        "trace.overhead_share": (traced_s / untraced_pass_s - 1, "share"),
    }


def _roadmap_rows(tracer, wl, passes):
    """ROADMAP item 1's baseline rows, as this run measured them."""
    lines = []
    for i, label in tracer.labels.items():
        if label.startswith("verify I8"):
            lines.append(f"roadmap: verify I8 {tracer.end[i] - tracer.start[i]:.3f} s traced, "
                         f"{tracing.descendants_named(tracer, i, tracing.INTEGRAND)} integrand "
                         "calls (ROADMAP: 0.27 s, 578)")
    for j, op in enumerate(wl.ops):
        if op.label.startswith(("verify I8", "verify I12")):
            ms = statistics.median(results[j][0] for _, results in passes) * 1e3
            lines.append(f"roadmap: {op.label} {ms:.2f} ms untraced median "
                         f"(ROADMAP: {'270' if 'I8' in op.label else '2'} ms)")
    return lines


def run(name: str, seed: int, seconds: float, trace: bool, *, tiny: bool = False,
        setup_repeats: int = SETUP_REPEATS):
    """One benchmark run; returns (result dict, human-readable lines, details)."""
    ml = _load_library()
    wl = workloads.build(name, seed, tiny=tiny)
    errors = tuple(getattr(ml, e) for e in workloads.LIBRARY_ERRORS)
    ctx = ml.PrecisionContext(wl.digits)
    wl.warmup(ml, ctx)

    passes, setup = _timed_phase(wl, ml, ctx, seconds, errors, lambda: _setup_sample(name),
                                 0 if trace else setup_repeats)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    first = passes[0][1]
    problems = [f"{op.label}: outcome differs between passes"
                for j, op in enumerate(wl.ops)
                if not all(_same(first[j], results[j]) for _, results in passes)]
    traced = None
    if trace:
        traced = _traced_pass(wl, ml, ctx, errors)
        problems += [f"{op.label}: traced outcome differs from untraced"
                     for op, a, b in zip(wl.ops, first, traced[2]) if not _same(a, b)]

    ref_mp = workloads.reference_context(wl.digits)
    checks = [None if r[1] is not None else op.check(ml, ctx, ref_mp, r[2])
              for op, r in zip(wl.ops, first)]
    problems += [f"{op.label}: disagrees with its reference"
                 for op, c in zip(wl.ops, checks) if c is not None and not c.correct]

    attempted = sum(len(results) for _, results in passes)
    failed = sum(_failed(op, r) for _, results in passes for op, r in zip(wl.ops, results))
    notes = [f"fail_share: {failed / attempted} ({failed} of {attempted} ops raised "
             "or returned an unexpected verdict)"]
    if trace:
        tracer, traced_s, _ = traced
        untraced_pass_s = statistics.median(p for p, _ in passes)
        metrics = per_layer(ml, wl, tracer, traced_s, untraced_pass_s, ref_mp, notes)
        if name == "catalog":
            notes += _roadmap_rows(tracer, wl, passes)
        notes.append(f"traced pass {traced_s:.3f} s vs untraced pass median "
                     f"{untraced_pass_s:.3f} s; {len(tracer.start)} spans")
    else:
        metrics = end_to_end(wl, passes, attempted, failed, checks, setup, rss_mb, notes)

    lines = [f"env: workload={name} seed={seed} digits={wl.digits} mpmath={mpmath.__version__} "
             f"backend={mpmath.libmp.BACKEND} python={platform.python_version()} "
             f"passes={len(passes)} ops_per_pass={len(wl.ops)} trace={int(trace)}"]
    for j, (op, c) in enumerate(zip(wl.ops, checks)):
        ms = statistics.median(results[j][0] for _, results in passes) * 1e3
        status = first[j][1] or ("ok" if not _failed(op, first[j]) else "unexpected verdict")
        digits = "" if c is None or c.digits is None else f" digits={c.digits:.1f}"
        lines.append(f"op: {op.label}: {status} {ms:.2f} ms{digits}")
    lines += [f"note: {n}" for n in notes] + [f"problem: {p}" for p in problems]
    lines += [f"metric: {k} = {v!r} {u}" for k, (v, u) in metrics.items()]
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return result, lines, {"passes": passes, "traced": traced}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    result, lines, _ = run(args.workload, args.seed, args.seconds, bool(args.trace))
    for line in lines:
        print(line)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
