"""Every name a module exports through ``__all__`` must exist on it, so that
``from diffesc.<module> import *`` keeps working after names are deleted; and
every function the benchmark traces must still exist where it looks."""
import ast
import functools
import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import diffesc

MODULES = [info.name for info in pkgutil.iter_modules(diffesc.__path__)
           if not info.ispkg]


def test_modules_found():
    assert {"cli", "controller", "heat", "loop"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"diffesc.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []


def test_cli_import_loads_no_scipy():
    # the runtime needs only numpy; scipy is a test-only dependency
    probe = "import sys, diffesc.cli; print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    env = {**os.environ, "PYTHONPATH": str(Path(diffesc.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         check=True, env=env)
    assert out.stdout.strip() == "[]"


def test_perfbench_hooks_resolve():
    # the traced benchmark mode wraps each (layer, path) of perfbench/child.py's
    # HOOKS; read the table without importing the benchmark harness
    child = Path(__file__).parents[1] / "perfbench" / "child.py"
    hooks = next(ast.literal_eval(node.value) for node in ast.parse(child.read_text()).body
                 if isinstance(node, ast.Assign)
                 and any(getattr(t, "id", None) == "HOOKS" for t in node.targets))
    assert hooks
    for layer, path in hooks:
        module = importlib.import_module(f"diffesc.{layer}")
        target = functools.reduce(getattr, path.split("."), module)
        assert callable(target), f"{layer}.{path}"
