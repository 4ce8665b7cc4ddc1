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
import inspect
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


def _hook_entries():
    """bench/tracing.HOOKS as (module, attribute, layer) triples."""
    for node in ast.parse((BENCH / "tracing.py").read_text()).body:
        if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == ["HOOKS"]:
            return ast.literal_eval(node.value)
    raise AssertionError("bench/tracing.py defines no HOOKS")


def _hooks():
    """bench/tracing.HOOKS as (module, attribute) pairs."""
    return sorted((mod, attr) for mod, attr, _ in _hook_entries())


def test_the_scan_sees_both_aliases():
    refs, hooks = _referenced(), _hooks()
    assert {mod for mod, _ in refs} == set(ALIASES.values())
    assert ("multiell.kernels", "axial_kernel") in refs
    assert ("multiell.diffop", "laplace_residual") in hooks


def test_every_benchmark_name_resolves():
    missing = [f"{mod}.{attr}" for mod, attr in _referenced() + _hooks()
               if not hasattr(importlib.import_module(mod), attr)]
    assert not missing


def test_series_hooks_take_n_terms_second():
    # the traced run counts terms from args[1] or kwargs["n_terms"] of every series.sum hook
    hooked = [(mod, attr) for mod, attr, layer in _hook_entries() if layer == "series.sum"]
    assert hooked
    for mod, attr in hooked:
        params = list(inspect.signature(getattr(importlib.import_module(mod), attr)).parameters)
        assert params[1] == "n_terms", f"{mod}.{attr}{params}"
