import ast
import importlib
import pkgutil
from pathlib import Path

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


@pytest.mark.parametrize("path", sorted(Path(patchwave.__file__).parent.glob("*.py")),
                         ids=lambda p: p.name)
def test_every_module_level_import_is_used(path):
    # the project runs no linter; this stands in for its unused-import rule
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            imported.update({(a.asname or a.name).split(".")[0]: node.lineno
                             for a in node.names})
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update({a.asname or a.name: node.lineno for a in node.names})
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    module = "patchwave" if path.stem == "__init__" else f"patchwave.{path.stem}"
    exported = set(getattr(importlib.import_module(module), "__all__", []))
    unused = sorted(f"{name} (line {line})" for name, line in imported.items()
                    if name not in used | exported)
    assert not unused, f"{path.name} imports but never uses {unused}"
