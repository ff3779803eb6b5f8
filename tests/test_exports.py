import ast
import importlib
import inspect
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


_ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("path", sorted(Path(patchwave.__file__).parent.glob("*.py"))
                         + sorted((_ROOT / "tests").glob("*.py")),
                         ids=lambda p: p.name)
def test_every_module_level_import_is_used(path):
    # the project runs no linter; this stands in for its unused-import rule,
    # over the library and its tests
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            imported.update({(a.asname or a.name).split(".")[0]: node.lineno
                             for a in node.names})
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update({a.asname or a.name: node.lineno for a in node.names})
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    exported = set()
    if path.parent.name == "patchwave":
        module = "patchwave" if path.stem == "__init__" else f"patchwave.{path.stem}"
        exported = set(getattr(importlib.import_module(module), "__all__", []))
    unused = sorted(f"{name} (line {line})" for name, line in imported.items()
                    if name not in used | exported)
    assert not unused, f"{path.name} imports but never uses {unused}"


# exported classes and functions that no library module, benchmark study or
# acceptance criterion calls, each kept on purpose
_KEPT_WITHOUT_CALLER = {
    "FiniteDifferenceHandle": "the only way a user's own function reaches the weighted norm",
    "classify_index": "the per-cell witness that the level mask is tested against",
    "synthesize": "evaluates a field at 3-D surface points",
}


def test_every_exported_name_has_a_caller_or_a_reason():
    callers = ([p for p in sorted(Path(patchwave.__file__).parent.glob("*.py"))
                if p.name != "__init__.py"]
               + sorted((_ROOT / "perfbench").glob("*.py"))
               + [_ROOT / "tests" / "test_acceptance.py"])
    referenced = set()
    for path in callers:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
    api = {name for name in patchwave.__all__
           if inspect.isclass(getattr(patchwave, name))
           or inspect.isfunction(getattr(patchwave, name))}
    uncalled = sorted(api - referenced)
    assert uncalled == sorted(_KEPT_WITHOUT_CALLER), (
        f"exported without a caller: {uncalled}; delete them or give a reason")
