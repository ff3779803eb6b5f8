import ast
import dataclasses
import importlib
import inspect
import pkgutil
import textwrap
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
    "classify_index": "the one-cell classifier that the level mask is tested against",
    "synthesize": "evaluates a field at 3-D surface points",
}


def _callers():
    """The library modules, the benchmark studies and the acceptance tests."""
    return ([p for p in sorted(Path(patchwave.__file__).parent.glob("*.py"))
             if p.name != "__init__.py"]
            + sorted((_ROOT / "perfbench").glob("*.py"))
            + [_ROOT / "tests" / "test_acceptance.py"])


def test_every_exported_name_has_a_caller_or_a_reason():
    referenced = set()
    for path in _callers():
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


def _members():
    """{Class.name: (class, name)} for every public method and property and
    every dataclass or NamedTuple field of each class in a module's
    __all__; a member is labelled by the class that defines it."""
    out = {}
    for module in _MODULES:
        mod = importlib.import_module(module)
        for cls in (getattr(mod, n) for n in getattr(mod, "__all__", [])):
            if not inspect.isclass(cls):
                continue
            for klass in cls.__mro__:
                if not klass.__module__.startswith("patchwave"):
                    continue
                for m, raw in vars(klass).items():
                    f = getattr(raw, "__func__", raw)
                    if not m.startswith("_") and (isinstance(raw, property)
                                                  or inspect.isfunction(f)):
                        out[f"{klass.__name__}.{m}"] = (klass, m)
            fields = ([f.name for f in dataclasses.fields(cls)]
                      if dataclasses.is_dataclass(cls) else getattr(cls, "_fields", ()))
            out.update((f"{cls.__name__}.{f}", (cls, f)) for f in fields)
    return out


class _Scoped(ast.NodeVisitor):
    """Tracks the qualified name of the class or function being visited."""

    def __init__(self):
        self.scope = []

    def _enter(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_ClassDef = visit_FunctionDef = _enter


class _Reads(_Scoped):
    """(attribute name, qualified name of the enclosing definition) of each
    attribute read."""

    def __init__(self):
        super().__init__()
        self.reads = set()

    def visit_Attribute(self, node):
        if isinstance(node.ctx, ast.Load):
            self.reads.add((node.attr, ".".join(self.scope)))
        self.generic_visit(node)


# public methods and record fields that no library module, benchmark study or
# acceptance criterion reads, each kept on purpose
_KEPT_UNREAD = {}


def test_every_member_and_field_has_a_reader_or_a_reason():
    visitor = _Reads()
    for path in _callers():
        visitor.visit(ast.parse(path.read_text(encoding="utf-8")))
    unread = []
    for label, (klass, name) in sorted(_members().items()):
        # a read inside the member's own definition does not count
        own = f"{klass.__qualname__}.{name}"
        if not any(attr == name and scope != own and not scope.startswith(own + ".")
                   for attr, scope in visitor.reads):
            unread.append(label)
    assert unread == sorted(_KEPT_UNREAD), (
        f"members and fields that nothing reads: "
        f"{sorted(set(unread) - set(_KEPT_UNREAD))}; delete them or give a "
        f"reason (stale reasons: {sorted(set(_KEPT_UNREAD) - set(unread))})")


# public member names that two or more exported classes define. The member
# audit matches reads by name, so a read of one class's member would pass
# another's unread: the reader of each was found by hand
_SHARED_MEMBERS = {
    "face_derivs": "weighted's norm calls handle.face_derivs on whichever "
                   "handle it is given: _FaceHandleBase's for the models, "
                   "FiniteDifferenceHandle's for a user's function",
    "level": "approx reads CoefficientField.level(j); wavelets._check_index "
             "reads WaveletIndex.level",
    "n_patches": "bem and wavelets read PolyhedralSurface.n_patches; "
                 "n_term_plan and uniform_approx read CoefficientField.n_patches",
    "normal": "synthesize's plane test reads Patch.normal; ConeFace._ball_radii, "
              "which the weighted norm's support pruning calls, reads ConeFace.normal",
    "patch": "wavelets._check_index reads WaveletIndex.patch; the weighted "
             "norm reads ConeFace.patch",
    "plane_derivs": "_FaceHandleBase.face_derivs calls self.plane_derivs, the "
                    "model's own; the base one is abstract",
    "surface": "approx's level sums read CoefficientField.surface; "
               "galerkin_rhs reads DoubleLayerSystem.surface",
}


def test_every_shared_member_name_has_its_readers_checked_by_hand():
    by_name = {}
    for label, (_, name) in _members().items():
        by_name.setdefault(name, []).append(label)
    shared = sorted(n for n, labels in by_name.items() if len(labels) > 1)
    assert shared == sorted(_SHARED_MEMBERS), (
        f"member names that several exported classes define: "
        f"{sorted(set(shared) - set(_SHARED_MEMBERS))}; find each one's reader "
        f"by hand, or delete it (stale entries: "
        f"{sorted(set(_SHARED_MEMBERS) - set(shared))})")


def _routines():
    """(owner, callee, function, leading parameters no call passes) for each
    exported function, and for the constructor and every public method of
    each exported class; a method's owner is its qualified name."""
    out = []
    for name in patchwave.__all__:
        obj = getattr(patchwave, name)
        if inspect.isfunction(obj):
            out.append((name, name, obj, 0))
        elif inspect.isclass(obj):
            members = {}
            for klass in reversed(obj.__mro__):      # a subclass's own wins
                if klass.__module__.startswith("patchwave"):
                    members.update((m, raw) for m, raw in vars(klass).items()
                                   if m == "__init__" or not m.startswith("_"))
            for m, raw in members.items():
                f = getattr(raw, "__func__", raw)
                if inspect.isfunction(f):
                    skip = 0 if isinstance(raw, staticmethod) else 1
                    owner = name if m == "__init__" else f.__qualname__
                    out.append((owner, name if m == "__init__" else m, f, skip))
    return out


def _options():
    """{label: (callee, parameter, position or None if keyword-only)} for
    every defaulted parameter of `_routines`, and {qualified name of the
    routine: {parameter: label}}."""
    options, own = {}, {}
    for owner, callee, f, skip in _routines():
        params = list(inspect.signature(f).parameters.values())[skip:]
        for i, p in enumerate(params):
            if p.default is not p.empty:
                label = f"{owner}({p.name})"
                options[label] = (callee, p.name,
                                  None if p.kind is p.KEYWORD_ONLY else i)
                own.setdefault(f.__qualname__, {})[p.name] = label
    return options, own


class _Calls(_Scoped):
    """Each call's callee name, positional arguments up to the first
    `*args`, keyword arguments by name (a `**` expansion sets none), and
    the qualified name of the function that makes it."""

    def __init__(self):
        super().__init__()
        self.calls = []

    def visit_Call(self, node):
        f = node.func
        callee = getattr(f, "id", getattr(f, "attr", None))
        args = []
        for a in node.args:
            if isinstance(a, ast.Starred):
                break
            args.append(a)
        kwargs = {k.arg: k.value for k in node.keywords if k.arg}
        self.calls.append((callee, args, kwargs, ".".join(self.scope)))
        self.generic_visit(node)


def _unset_options():
    """Labels of the options that no call in the library, the benchmark
    studies or the acceptance tests sets. A call that passes its own
    routine's option on under the same name (``J=J``) forwards it: the inner
    option is then set wherever the outer one is."""
    options, own = _options()
    visitor = _Calls()
    for path in _callers():
        visitor.visit(ast.parse(path.read_text(encoding="utf-8")))
    set_by = {label: set() for label in options}
    for callee, args, kwargs, scope in visitor.calls:
        for label, (name, param, pos) in options.items():
            if name != callee:
                continue
            value = kwargs.get(param)
            if value is None and pos is not None and pos < len(args):
                value = args[pos]
            if value is None:
                continue
            outer = own.get(scope, {}).get(param)
            forwarded = isinstance(value, ast.Name) and value.id == param
            set_by[label].add(outer if forwarded and outer else "call")
    is_set = {label: "call" in by for label, by in set_by.items()}
    while True:
        more = [label for label, by in set_by.items()
                if not is_set[label] and any(is_set.get(o) for o in by)]
        if not more:
            return sorted(label for label, done in is_set.items() if not done)
        is_set.update(dict.fromkeys(more, True))


def _unread_parameters():
    """Labels of the parameters that an exported function's body never
    reads (methods are left out: an override keeps its interface's)."""
    unread = []
    for name in patchwave.__all__:
        f = getattr(patchwave, name)
        if inspect.isfunction(f):
            tree = ast.parse(textwrap.dedent(inspect.getsource(f))).body[0]
            read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
            unread += [f"{name}({a.arg})" for a in tree.args.args
                       + tree.args.kwonlyargs if a.arg not in read]
    return unread


# options that no call sets, or parameters no body reads, each kept on purpose
_KEPT_OPTIONS = {
    "classify_level(basis)": "the benchmark passes it by position; dropping "
                             "it waits for a change to the benchmark",
    "VertexPowerModel(cut)": "the support-ball property tests draw it at random",
    "EdgePowerModel(band)": "the support-ball property tests draw it at random",
    "EdgePowerModel(width)": "the support-ball property tests draw it at random",
}


def test_every_option_is_set_by_a_caller_or_kept_for_a_reason():
    dead = sorted(_unset_options() + _unread_parameters())
    assert dead == sorted(_KEPT_OPTIONS), (
        f"options that no call sets or no body reads: "
        f"{sorted(set(dead) - set(_KEPT_OPTIONS))}; make them constants or "
        f"give a reason (stale reasons: {sorted(set(_KEPT_OPTIONS) - set(dead))})")
