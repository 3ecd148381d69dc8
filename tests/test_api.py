"""Every name a module exports through ``__all__`` must exist on it, so that
``from diffesc.<module> import *`` keeps working after names are deleted, and
the package must export it;
every function the benchmark traces must still exist where it looks and be
called by the commands it benchmarks; the package's import stays cheap; and the
README's library quickstart runs as written."""
import ast
import configparser
import dataclasses
import functools
import importlib
import inspect
import json
import os
import pkgutil
import re
import subprocess
import sys
from importlib import resources
from pathlib import Path

import pytest

import diffesc
from conftest import PERFBENCH, blas_env, perfbench_hooks

MODULES = [info.name for info in pkgutil.iter_modules(diffesc.__path__)
           if not info.ispkg]


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


def test_star_import_exports_the_modules_api_only():
    # the package's own names (its BLAS pin's os and numpy) stay out of the API:
    # `from diffesc import *` gives the union of the modules' __all__, plus the
    # submodules already imported, as for any package without an __all__ of its own
    names = {}
    exec("from diffesc import *", names)
    api = set().union(*(getattr(importlib.import_module(f"diffesc.{name}"), "__all__", ())
                        for name in MODULES))
    assert set(names) - {"__builtins__"} - set(MODULES) == api
    # the verification studies no command runs are test code (tests/verification.py)
    assert api.isdisjoint({"convergence_order", "OrderEstimate", "period_average_estimates",
                           "EstimatorOutputs", "from_target"})
    # the probe's integral identity has one quadrature, dither.field_integral
    assert api.isdisjoint({"IdentityReport", "verify_integral_identity"})
    # a profile's integral is a product with heat.integration_weights, no wrapper
    assert "integrate_profile" not in api


THREADS_PROBE = """
import json, os
before = dict(os.environ)
{first}
import diffesc.cli
print(json.dumps([len(os.listdir("/proc/self/task")), os.environ == before]))
"""
counts_threads = pytest.mark.skipif(not sys.platform.startswith("linux"),
                                    reason="counts threads in /proc/self/task")


def threads_after(code: str, **variables) -> list:
    """[threads, os.environ unchanged] printed by ``code`` in a fresh interpreter
    under ``blas_env(**variables)``."""
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env=blas_env(**variables))
    return json.loads(out.stdout)


@counts_threads
def test_import_starts_numpy_with_one_blas_thread(default_child):
    # the loop needs no second BLAS thread, and OpenBLAS's pool cost ~120 ms of CPU
    # per command; the variable set for the import is gone after it
    assert [default_child["threads"], default_child["environ"]] == [1, True]


@counts_threads
@pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="OpenBLAS starts one thread per core")
@pytest.mark.parametrize("variable", ["OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"])
def test_a_chosen_blas_thread_count_is_honoured(variable):
    assert threads_after(THREADS_PROBE.format(first=""), **{variable: "2"}) == [2, True]


@counts_threads
def test_numpy_imported_first_keeps_its_default_pool():
    numpy_only = THREADS_PROBE.format(first="import numpy").replace("import diffesc.cli", "")
    assert threads_after(THREADS_PROBE.format(first="import numpy")) == threads_after(numpy_only)


def test_artifacts_do_not_depend_on_the_blas_thread_count(tmp_path):
    # on 1001 nodes the field snapshots' 1000 x 1000 modal product is large enough
    # for OpenBLAS to split over two threads (at 512 x 512 it uses one); every
    # artifact must stay the same bytes
    parser = configparser.ConfigParser()
    parser.read_string(resources.files("diffesc.configs").joinpath("baseline.cfg").read_text())
    parser.set("scenario", "duration", "1.0")
    parser.set("actuator", "nodes", "1001")
    config = tmp_path / "baseline.cfg"
    with open(config, "w", encoding="utf-8") as fh:
        parser.write(fh)
    listed = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads_{threads}"
        subprocess.run([sys.executable, "-m", "diffesc.cli", "run", "--config", str(config),
                        "--out", str(out)], capture_output=True, check=True,
                       env=blas_env(OPENBLAS_NUM_THREADS=threads))
        listed.append(json.loads((out / "manifest.json").read_text())["files"])
    assert listed[0] == listed[1] and len(listed[0]) == 8


def test_cli_import_loads_no_scipy(default_child):
    # the runtime needs only numpy; scipy is a test-only dependency
    assert default_child["scipy"] == []


def test_every_runner_takes_one_scenario_config():
    from diffesc import loop
    for runner in (loop.run_esc, loop.run_average_system, loop.run_standard_esc):
        assert list(inspect.signature(runner).parameters) == ["config"], runner.__name__


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


def test_perfbench_bindings_exist_right_after_cli_import(default_child):
    # the benchmark child wraps its hooks, and diffesc.cli.run_esc, in the
    # modules that `import diffesc.cli` alone has loaded: a lazy import or a
    # rename would leave a metric unbound
    assert default_child["unbound"] == []


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


def test_readme_quickstart_runs_as_written(capsys):
    # every python block under "## Library quickstart", in order, in one namespace
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    section = readme.split("\n## Library quickstart\n", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"```python\n(.*?)```", section, flags=re.S)
    assert len(blocks) == 3
    namespace = {}
    for block in blocks:
        exec(compile(block, "README.md", "exec"), namespace)
    assert 0.01 < float(capsys.readouterr().out) < 0.03      # "~0.02"
    assert namespace["baseline"].t[-1] == namespace["record"].t[-1] == 100.0
    avg, probe = namespace["avg"], namespace["probe"]
    assert avg.Omega[-1] < 1e-6 * avg.Omega[0]               # "1.0 -> 1.7e-7"
    assert probe.Omega[-1] > 1e6 * probe.Omega[0]
