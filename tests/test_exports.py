"""The package's public names: every entry of multiell.__all__ resolves and
is listed once, so an edit to the exports cannot leave a dangling or
duplicated name; and each one is reached by the library, the benchmark or
a demo, so the public surface holds no name that only tests call.

The files are read as source, not imported.
"""

import ast
from collections import Counter
from pathlib import Path

import multiell

ROOT = Path(__file__).resolve().parent.parent


def test_every_exported_name_resolves_and_is_listed_once():
    assert [name for name in multiell.__all__ if not hasattr(multiell, name)] == []
    assert [name for name, n in Counter(multiell.__all__).items() if n > 1] == []


def _used(tree, strings):
    """Names the tree reads as a Name or an Attribute, or with strings as a str
    constant, outside the def or class of the same name."""
    found = set()

    def visit(node, inside):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            inside = inside | {node.name}
        if isinstance(node, ast.Name):
            name = node.id
        elif isinstance(node, ast.Attribute):
            name = node.attr
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            name = node.value
        else:
            name = None
        if name is not None and name not in inside:
            found.add(name)
        for child in ast.iter_child_nodes(node):
            visit(child, inside)

    visit(tree, frozenset())
    return found


def test_every_exported_name_is_reached_outside_the_tests():
    # bench/workloads.py resolves error types by name (LIBRARY_ERRORS), so
    # a string constant counts there
    sources = [(path, False) for path in (ROOT / "src" / "multiell").glob("*.py")
               if path.name != "__init__.py"]
    sources += [(path, True) for path in (ROOT / "bench").glob("*.py")]
    sources += [(path, False) for path in (ROOT / "demos").glob("*.py")]
    used = set()
    for path, strings in sources:
        used |= _used(ast.parse(path.read_text()), strings)
    assert sorted(set(multiell.__all__) - used) == []
