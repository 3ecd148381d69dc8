"""Fresh-interpreter helpers shared by test modules, and the one default-environment
child that serves ``test_api``'s import checks and ``test_analysis``'s fit bits."""
import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import diffesc

BLAS_VARIABLES = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
PERFBENCH = Path(__file__).parents[1] / "perfbench"


def blas_env(**variables) -> dict:
    """The environment without the BLAS variables but ``variables``, importing
    diffesc from this tree."""
    env = {k: v for k, v in os.environ.items() if k not in BLAS_VARIABLES}
    env.update(variables, PYTHONPATH=str(Path(diffesc.__file__).parents[1]))
    return env


def perfbench_hooks():
    """The (layer, path) table HOOKS of perfbench/child.py, read without
    importing the benchmark harness."""
    tree = ast.parse((PERFBENCH / "child.py").read_text())
    return next(ast.literal_eval(node.value) for node in tree.body
                if isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == "HOOKS" for t in node.targets))


# fit_decay and residual_scaling on inputs built from the math module, as float.hex
FIT_VALUES = """
import math
import numpy as np
from diffesc.analysis import fit_decay, residual_scaling
t = [0.01 * i for i in range(2001)]
decay = fit_decay(np.array(t), np.array([3.0 * math.exp(-0.8 * s + 0.05 * math.sin(7.0 * s))
                                         for s in t]))
scaling = residual_scaling({a: (1.3 * a * a * (1.0 + 0.1 * math.sin(9.0 * a)),
                                0.7 * a * (1.0 + 0.1 * math.cos(5.0 * a)))
                            for a in (0.3, 0.2, 0.1, 0.05)})
fit = [float(v).hex() for v in (*decay[:3], *scaling[:4])]
"""
FIT_PROBE = "import json\n" + FIT_VALUES + "print(json.dumps(fit))\n"

DEFAULT_PROBE = """
import json, os, sys
before = dict(os.environ)
import diffesc.cli
threads = len(os.listdir("/proc/self/task")) if os.path.isdir("/proc/self/task") else None
environ = os.environ == before
scipy = sorted(m for m in sys.modules if m.startswith("scipy"))
import functools
unbound = []
for layer, path in json.loads(sys.argv[1]):
    module = sys.modules.get("diffesc." + layer)
    try:
        target = functools.reduce(getattr, path.split("."), module)
    except AttributeError:
        target = None
    if module is None or not callable(target):
        unbound.append(f"{layer}.{path}")
if diffesc.cli.run_esc is not sys.modules["diffesc.loop"].run_esc:
    unbound.append("cli.run_esc")
""" + FIT_VALUES + """
print(json.dumps({"threads": threads, "environ": environ, "scipy": scipy, "unbound": unbound,
                  "fit": fit}))
"""


@pytest.fixture(scope="session")
def default_child():
    """One fresh interpreter under ``blas_env()``.  First, what `import diffesc.cli`
    alone leaves: {"threads": its thread count (None off Linux), "environ": whether
    os.environ is unchanged, "scipy": the scipy modules loaded, "unbound": each
    perfbench hook, and cli.run_esc, that is not bound where the benchmark child
    wraps it}; then "fit": ``FIT_PROBE``'s list, computed after that import."""
    out = subprocess.run([sys.executable, "-c", DEFAULT_PROBE, json.dumps(perfbench_hooks())],
                         capture_output=True, text=True, check=True, env=blas_env())
    return json.loads(out.stdout)
