"""Every name a module lists in __all__ exists, so its star import succeeds."""

import importlib
import pkgutil

import pytest

import icdx

MODULES = ["icdx", *(f"icdx.{info.name}" for info in pkgutil.iter_modules(icdx.__path__))]


@pytest.mark.parametrize("module_name", MODULES)
def test_all_names_resolve(module_name):
    module = importlib.import_module(module_name)
    assert [name for name in module.__all__ if not hasattr(module, name)] == []
    namespace: dict = {}
    exec(f"from {module_name} import *", namespace)
    assert set(module.__all__) <= set(namespace)
