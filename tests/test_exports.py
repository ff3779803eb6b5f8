import importlib
import pkgutil

import pytest

import patchwave

_MODULES = ["patchwave"] + [f"patchwave.{info.name}"
                            for info in pkgutil.iter_modules(patchwave.__path__)]


@pytest.mark.parametrize("name", _MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported)
    missing = [n for n in exported if not hasattr(module, n)]
    assert not missing, f"{name}.__all__ names undefined {missing}"
