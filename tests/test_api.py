"""Every name a module exports through ``__all__`` must exist on it, so that
``from diffesc.<module> import *`` keeps working after names are deleted;
every function the benchmark traces must still exist where it looks; and the
package's import stays cheap."""
import ast
import dataclasses
import functools
import importlib
import json
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


@pytest.mark.parametrize("name", MODULES)
def test_no_dataclasses(name):
    # building a dataclass execs its generated methods at import: about 1 ms
    # per class, against 0.1 ms for a NamedTuple and 0.01 ms for a __slots__ class
    module = importlib.import_module(f"diffesc.{name}")
    found = [n for n, obj in vars(module).items()
             if isinstance(obj, type) and obj.__module__ == module.__name__
             and dataclasses.is_dataclass(obj)]
    assert found == []


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


def test_perfbench_bindings_exist_right_after_cli_import():
    # the benchmark child wraps its hooks, and diffesc.cli.run_esc, in the
    # modules that `import diffesc.cli` alone has loaded: a lazy import or a
    # rename would leave a metric unbound
    child = Path(__file__).parents[1] / "perfbench" / "child.py"
    hooks = next(ast.literal_eval(node.value) for node in ast.parse(child.read_text()).body
                 if isinstance(node, ast.Assign)
                 and any(getattr(t, "id", None) == "HOOKS" for t in node.targets))
    probe = """
import functools, json, sys
import diffesc.cli
missing = []
for layer, path in json.loads(sys.argv[1]):
    module = sys.modules.get("diffesc." + layer)
    try:
        target = functools.reduce(getattr, path.split("."), module)
    except AttributeError:
        target = None
    if module is None or not callable(target):
        missing.append(f"{layer}.{path}")
if diffesc.cli.run_esc is not sys.modules["diffesc.loop"].run_esc:
    missing.append("cli.run_esc")
print(json.dumps(missing))
"""
    env = {**os.environ, "PYTHONPATH": str(Path(diffesc.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", probe, json.dumps(hooks)],
                         capture_output=True, text=True, check=True, env=env)
    assert json.loads(out.stdout) == []
