"""The library names the benchmark reaches for all exist.

bench/workloads.py and bench/run.py call the package as ``ml`` (multiell)
and its kernels as ``km`` (multiell.kernels), and bench/tracing.HOOKS
wraps (module, attribute) pairs.  The benchmark's own tests run only a
tiny subset of its ops, so a renamed or deleted entry point could break a
full benchmark run while they pass.  The files are read as source, not
imported or edited.
"""

import ast
import importlib
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"
ALIASES = {"ml": "multiell", "km": "multiell.kernels"}


def _referenced():
    """(module, attribute) for every ml.<name> and km.<name> in the benchmark."""
    refs = set()
    for name in ("workloads.py", "run.py"):
        for node in ast.walk(ast.parse((BENCH / name).read_text())):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id in ALIASES):
                refs.add((ALIASES[node.value.id], node.attr))
    return sorted(refs)


def _hooks():
    """bench/tracing.HOOKS as (module, attribute) pairs."""
    for node in ast.parse((BENCH / "tracing.py").read_text()).body:
        if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == ["HOOKS"]:
            return sorted((mod, attr) for mod, attr, _ in ast.literal_eval(node.value))
    raise AssertionError("bench/tracing.py defines no HOOKS")


def test_the_scan_sees_both_aliases():
    refs, hooks = _referenced(), _hooks()
    assert {mod for mod, _ in refs} == set(ALIASES.values())
    assert ("multiell.kernels", "axial_kernel") in refs
    assert ("multiell.diffop", "laplace_residual") in hooks


def test_every_benchmark_name_resolves():
    missing = [f"{mod}.{attr}" for mod, attr in _referenced() + _hooks()
               if not hasattr(importlib.import_module(mod), attr)]
    assert not missing
