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


def test_package_exports_each_module_name_once():
    # icdx.__all__ is the modules' lists joined: no name twice, each one
    # the module's own object, and the CLI's names stay in icdx.cli.
    assert len(icdx.__all__) == len(set(icdx.__all__))
    for module_name in MODULES[1:]:
        module = importlib.import_module(module_name)
        if module_name == "icdx.cli":
            assert not set(module.__all__) & set(icdx.__all__)
            continue
        for name in module.__all__:
            assert name in icdx.__all__ and getattr(icdx, name) is getattr(module, name)
