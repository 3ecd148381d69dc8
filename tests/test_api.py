"""Every name a module exports through ``__all__`` must exist on it, so that
``from diffesc.<module> import *`` keeps working after names are deleted."""
import importlib
import pkgutil

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
