"""Tests for the benchmark itself (tiny op subsets, so they run in seconds).

    PYTHONPATH=src python -m pytest -q bench/test_bench.py
"""

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def _tiny(name, trace):
    return run.run(name, 3, 0.01, trace, tiny=True, setup_repeats=1)


@pytest.mark.parametrize("name", workloads.NAMES)
def test_same_seed_same_inputs_other_seed_other_inputs(name):
    labels = lambda seed: [op.label for op in workloads.build(name, seed).ops]  # noqa: E731
    assert labels(5) == labels(5)
    assert labels(5) != labels(6)


@pytest.mark.parametrize("name", workloads.NAMES)
def test_tiny_run_is_quick_and_correct(name):
    t0 = time.perf_counter()
    result, _, _ = _tiny(name, False)
    assert time.perf_counter() - t0 < 60
    assert result["correct"] and result["attempted"] >= 1 and result["failed"] == 0


@pytest.mark.parametrize("name", ("catalog", "operators", "series"))
def test_traced_run_keeps_outcomes_and_values(name):
    result, lines, details = _tiny(name, True)
    untraced = details["passes"][0][1]
    traced = details["traced"][2]
    assert [r[1:] for r in traced] == [r[1:] for r in untraced]
    assert result["correct"], lines


@pytest.mark.parametrize("trace,section", ((False, "end_to_end"), (True, "per_layer")))
def test_every_metric_is_printed_with_its_unit(trace, section):
    result, lines, _ = _tiny("catalog", trace)
    want = {m["name"]: m["unit"] for m in SPEC[section]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == want
    printed = [line for line in lines if line.startswith("metric: ")]
    for name, unit in want.items():
        assert any(line.startswith(f"metric: {name} = ") and line.endswith(f" {unit}")
                   for line in printed), name
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())


def test_tracer_restores_every_entry_point():
    import multiell.identities as identities
    before = {name: getattr(identities, name) for name in ("verify", "get_identity", "IntegralSpec")}
    cells = [c.cell_contents for rec in identities.list_identities()
             for c in (rec.lhs.__closure__ or ())]
    undo = run.tracing.install(run.tracing.Tracer())
    assert undo
    run.tracing.uninstall(undo)
    assert before == {name: getattr(identities, name) for name in before}
    assert cells == [c.cell_contents for rec in identities.list_identities()
                     for c in (rec.lhs.__closure__ or ())]


def test_fails_without_the_library(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    out = subprocess.run([sys.executable, "bench/run.py", "--workload", "catalog", "--seed", "1",
                          "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
