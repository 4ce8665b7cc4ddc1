"""Every module of the package imports first, with no import cycle.

``import multiell.<module>`` runs the package's ``__init__`` first, which
imports the modules in one fixed order, so a cycle that another order
meets stays hidden.  Each test therefore starts a fresh interpreter, gives
it an empty ``multiell`` package object (the real search path, no
``__init__`` run) and imports the one module first.
"""

import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import multiell

MODULES = sorted(m.name for m in pkgutil.iter_modules(multiell.__path__))
SRC = str(Path(multiell.__file__).parents[1])

IMPORT_FIRST = """
import importlib, importlib.util, sys, types
spec = importlib.util.find_spec("multiell")
package = types.ModuleType("multiell")
package.__path__, package.__spec__ = list(spec.submodule_search_locations), spec
sys.modules["multiell"] = package
importlib.import_module("multiell." + sys.argv[1])
"""


def test_every_module_is_listed():
    assert {"elliptic", "identities", "series", "singular"} <= set(MODULES)


@pytest.mark.parametrize("module", MODULES)
def test_module_imports_first(module):
    path = os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))
    env = {**os.environ, "PYTHONPATH": path}
    result = subprocess.run([sys.executable, "-c", IMPORT_FIRST, module],
                            capture_output=True, text=True, timeout=120, env=env)
    assert result.returncode == 0, result.stderr
