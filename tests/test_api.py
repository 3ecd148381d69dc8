"""Every name a module exports through ``__all__`` must exist on it, so that
``from diffesc.<module> import *`` keeps working after names are deleted, and
the package must export it;
every function the benchmark traces must still exist where it looks and be
called by the commands it benchmarks; and the package's import stays cheap."""
import ast
import configparser
import dataclasses
import functools
import importlib
import json
import os
import pkgutil
import subprocess
import sys
from importlib import resources
from pathlib import Path

import pytest

import diffesc

MODULES = [info.name for info in pkgutil.iter_modules(diffesc.__path__)
           if not info.ispkg]
PERFBENCH = Path(__file__).parents[1] / "perfbench"


def perfbench_hooks():
    """The (layer, path) table HOOKS of perfbench/child.py, read without
    importing the benchmark harness."""
    tree = ast.parse((PERFBENCH / "child.py").read_text())
    return next(ast.literal_eval(node.value) for node in tree.body
                if isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == "HOOKS" for t in node.targets))


def perfbench_workloads():
    """{name: (bundled config, command, hooks predicted idle)} of the
    ``Workload(...)`` entries in perfbench/workloads.py."""
    tree = ast.parse((PERFBENCH / "workloads.py").read_text())
    return {node.args[0].value: (node.args[1].value, node.args[2].value,
                                 ast.literal_eval(node.args[-1].args[0]))
            for node in ast.walk(tree)
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "Workload"}


def test_modules_found():
    assert {"cli", "controller", "heat", "loop"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"diffesc.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []


@pytest.mark.parametrize("name", MODULES)
def test_package_exports_every_public_name(name):
    # the package re-exports each module's __all__: one list declares the API
    module = importlib.import_module(f"diffesc.{name}")
    assert [n for n in getattr(module, "__all__", ())
            if getattr(diffesc, n, None) is not getattr(module, n)] == []


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
    # the traced benchmark mode wraps each (layer, path) of perfbench/child.py's HOOKS
    hooks = perfbench_hooks()
    assert hooks
    for layer, path in hooks:
        module = importlib.import_module(f"diffesc.{layer}")
        target = functools.reduce(getattr, path.split("."), module)
        assert callable(target), f"{layer}.{path}"


def test_perfbench_bindings_exist_right_after_cli_import():
    # the benchmark child wraps its hooks, and diffesc.cli.run_esc, in the
    # modules that `import diffesc.cli` alone has loaded: a lazy import or a
    # rename would leave a metric unbound
    hooks = perfbench_hooks()
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


def _counting(calls: dict, key: str, fn):
    def counted(*args, **kwargs):
        calls[key] += 1
        return fn(*args, **kwargs)
    return counted


@pytest.mark.parametrize("name", ["esc_run", "amplitude_sweep"])
def test_benchmarked_command_calls_every_predicted_hook(name, tmp_path, monkeypatch, capsys):
    # the benchmark reports each hook's calls and per-call times; a refactor that
    # stops calling a hook on a workload that is predicted to call it leaves that
    # metric empty.  Wrap every hook the way perfbench/child.py does, in every
    # diffesc namespace that binds it, and run the workload's command, shortened.
    workloads = perfbench_workloads()
    assert set(workloads) == {"esc_run", "amplitude_sweep"}
    base, command, idle = workloads[name]
    cli = importlib.import_module("diffesc.cli")
    calls = {}
    for layer, path in perfbench_hooks():
        key = f"{layer}.{path}"
        *parents, attr = path.split(".")
        owner = functools.reduce(getattr, parents, sys.modules[f"diffesc.{layer}"])
        original = getattr(owner, attr)
        calls[key] = 0
        counted = _counting(calls, key, original)
        if isinstance(owner, type):
            monkeypatch.setattr(owner, attr, counted)
            continue
        for module_name, module in list(sys.modules.items()):
            if module_name == "diffesc" or module_name.startswith("diffesc."):
                for bound, value in list(vars(module).items()):
                    if value is original:
                        monkeypatch.setattr(module, bound, counted)
    assert idle <= set(calls)

    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    parser.optionxform = str
    parser.read_string(resources.files("diffesc.configs").joinpath(f"{base}.cfg").read_text())
    parser.set("scenario", "duration", "0.7")
    config = tmp_path / f"{base}.cfg"
    with open(config, "w", encoding="utf-8") as fh:
        parser.write(fh)
    args = {"run": ["run", "--config", str(config), "--out", str(tmp_path / "out")],
            "sweep": ["sweep", "--config", str(config), "--param", "a",
                      "--values", "0.2,0.25,0.3", "--out", str(tmp_path / "out")]}[command]
    assert cli.main(args) == 0, capsys.readouterr()
    assert [key for key in calls if key not in idle and calls[key] == 0] == []
    assert [key for key in idle if calls[key]] == []
