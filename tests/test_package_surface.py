"""Stale imports and exports in the package source.

No linter is a dependency, so these checks walk each module's syntax
tree: every module-level import is used in its module, every `__all__`
entry is defined there, the package exports exactly the union of its
public modules' `__all__` lists, private names cross module lines only
out of `core` (by import or by attribute read), no scipy import runs
when a module is imported, no module imports jsonschema or
scipy.optimize, every optional parameter and every defaulted dataclass
field of the package is passed by some call in the package or its
acceptance spec and left at its default by another, and every
cross-field check of a config class points at one of its fields.
"""

import ast
import dataclasses
import importlib
import inspect
import textwrap
from pathlib import Path

import chronolab

SRC = Path(__file__).resolve().parent.parent / "src" / "chronolab"
TREES = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(SRC.glob("*.py"))}
PUBLIC = ("errors", "core", "classical", "stationary", "semiclassical", "dynamics")


def _imported(tree) -> dict:
    """name -> line of each name a module-level import binds (no star imports)."""
    out = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if alias.name != "*":
                    out[alias.asname or alias.name.split(".")[0]] = node.lineno
    return out


def _all(tree) -> list:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return ast.literal_eval(node.value)
    return []


def _defined(tree) -> set:
    """Names bound at module level by a def, a class, an assignment or an import."""
    names = set(_imported(tree))
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names.update(t.id for t in node.targets if isinstance(t, ast.Name))
    return names


def test_module_level_imports_are_used():
    stale = []
    for stem, tree in TREES.items():
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)} | set(_all(tree))
        stale += [f"{stem}.py:{line} {name}" for name, line in _imported(tree).items()
                  if name not in used]
    assert not stale, f"imported but never used: {stale}"


def test_all_entries_are_defined():
    missing = [f"{stem}.{name}" for stem, tree in TREES.items()
               for name in _all(tree) if name not in _defined(tree)]
    assert not missing, f"listed in __all__ but not defined: {missing}"


def test_package_exports_the_union_of_module_all():
    union = set().union(*(importlib.import_module(f"chronolab.{m}").__all__ for m in PUBLIC))
    exported = {name for name, value in vars(chronolab).items()
                if not name.startswith("_") and not inspect.ismodule(value)}
    assert exported == union


def _module_names(tree) -> dict:
    """local name -> module stem, for each package module that a
    module-level import binds as a module (`from . import m`,
    `from chronolab import m`, `import chronolab.m as x`)."""
    out = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and (
                (node.level and not node.module) or (not node.level and node.module == "chronolab")):
            out.update((a.asname or a.name, a.name) for a in node.names if a.name in TREES)
        elif isinstance(node, ast.Import):
            out.update((a.asname, a.name.split(".", 1)[1]) for a in node.names
                       if a.asname and a.name.startswith("chronolab."))
    return out


def _private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def test_private_names_are_imported_only_from_core():
    """`from .m import _name` and a read `m._name` through an imported
    module appear only with m = core.

    `core` owns what several modules share (grids, stencils, the channel
    space); every other module's private names stay its own.
    """
    crossing = []
    for stem, tree in TREES.items():
        modules = _module_names(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                module = node.module or ""
                if node.level == 0:
                    if not module.startswith("chronolab."):
                        continue
                    module = module.split(".", 1)[1]
                crossing += [f"{stem}.py:{node.lineno} {module}.{alias.name}"
                             for alias in node.names if _private(alias.name) and module != "core"]
            elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                  and modules.get(node.value.id, "core") != "core" and _private(node.attr)):
                crossing.append(f"{stem}.py:{node.lineno} {modules[node.value.id]}.{node.attr}")
    assert not crossing, f"private names read from a module other than core: {crossing}"


def _import_time_imports(node):
    """The import statements that run when the module is imported: all of
    them but those inside a function body."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if isinstance(child, (ast.Import, ast.ImportFrom)):
            yield child
        yield from _import_time_imports(child)


def _imports_of(package: str, imports) -> list:
    """"<stem>.py:<line> <module>" for each of `imports`, {stem: import
    nodes}, that names a module of the absolute `package`."""
    found = []
    for stem, nodes in imports.items():
        for node in nodes:
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            else:
                modules = [node.module or ""] if node.level == 0 else []
            found += [f"{stem}.py:{node.lineno} {m}" for m in modules if m.split(".")[0] == package]
    return found


def test_scipy_is_imported_only_inside_functions():
    """scipy loads where a layer first needs it, never at start-up."""
    eager = _imports_of("scipy", {stem: _import_time_imports(tree) for stem, tree in TREES.items()})
    assert not eager, f"scipy imported at module level: {eager}"


def test_no_module_imports_jsonschema():
    """The CLI reads the config schemas itself; jsonschema is a test oracle only."""
    found = _imports_of("jsonschema", {
        stem: [n for n in ast.walk(tree) if isinstance(n, (ast.Import, ast.ImportFrom))]
        for stem, tree in TREES.items()})
    assert not found, f"jsonschema imported: {found}"


def test_no_module_imports_scipy_optimize():
    """The path minimizer is the package's own damped Newton loop."""
    imports = {stem: [n for n in ast.walk(tree) if isinstance(n, (ast.Import, ast.ImportFrom))]
               for stem, tree in TREES.items()}
    found = [f for f in _imports_of("scipy", imports)
             if f.split()[-1].split(".")[:2] == ["scipy", "optimize"]]
    found += [f"{stem}.py:{node.lineno} scipy.{alias.name}"
              for stem, nodes in imports.items() for node in nodes
              if isinstance(node, ast.ImportFrom) and node.level == 0 and node.module == "scipy"
              for alias in node.names if alias.name == "optimize"]
    assert not found, f"scipy.optimize imported: {found}"


# The acceptance spec is the one test file whose calls count as callers: a
# parameter that only the rest of the suite sets is a knob for tests alone.
SPEC_TREE = ast.parse(SRC.parent.parent.joinpath("tests", "test_acceptance.py").read_text(encoding="utf-8"))


def _optional_parameters(tree) -> list:
    """(callee name, parameter, position or None) of every parameter with a default.

    Functions and methods count under their own name, `__init__` under
    its class's name (and, through `_subclasses`, those of the classes
    that inherit it); a method's first parameter, `self`, is not a
    position of its calls.
    """
    out = []

    def visit(node, cls=None):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, child.name)
            elif isinstance(child, ast.FunctionDef):
                a = child.args
                positional = (a.posonlyargs + a.args)[cls is not None:]
                callee = cls if child.name == "__init__" else child.name
                for i, arg in enumerate(positional[len(positional) - len(a.defaults):],
                                        len(positional) - len(a.defaults)):
                    out.append((callee, arg.arg, i))
                out.extend((callee, arg.arg, None)
                           for arg, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None)
                visit(child)
            else:
                visit(child, cls)

    visit(tree)
    return out


def _named(node, name: str) -> bool:
    """`node` is the name `name` or a call of it."""
    node = node.func if isinstance(node, ast.Call) else node
    return isinstance(node, ast.Name) and node.id == name


def _dataclass_fields(tree) -> list:
    """(class name, field, position) of every field with a default of the
    module's dataclasses, config parameters (`param(...)`) excepted: their
    defaults are the scenario defaults a run takes.

    A field's position counts the fields of the class's dataclass bases
    in the module first, as the generated `__init__` does.
    """
    classes = {node.name: node for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
               and any(_named(d, "dataclass") for d in node.decorator_list)}

    def fields(cls):
        inherited = [f for b in cls.bases if isinstance(b, ast.Name) and b.id in classes
                     for f in fields(classes[b.id])]
        return inherited + [s for s in cls.body
                            if isinstance(s, ast.AnnAssign) and isinstance(s.target, ast.Name)]

    return [(name, f.target.id, i) for name, cls in classes.items()
            for i, f in enumerate(fields(cls))
            if f in cls.body and f.value is not None and not _named(f.value, "param")]


def _subclasses(tree, name: str) -> set:
    """`name` and the names of the module's classes that derive from it."""
    classes = [node for node in ast.walk(tree) if isinstance(node, ast.ClassDef)]
    names, grown = {name}, True
    while grown:
        derived = {c.name for c in classes
                   if any(isinstance(b, ast.Name) and b.id in names for b in c.bases)}
        grown = not derived <= names
        names |= derived
    return names


def _passes(call: ast.Call, name: str, position) -> bool:
    if any(kw.arg is None or kw.arg == name for kw in call.keywords):
        return True
    if any(isinstance(arg, ast.Starred) for arg in call.args):
        return True
    return position is not None and len(call.args) > position


def _calls(trees) -> dict:
    """callee name -> every call in `trees` of a function or an attribute
    by that name."""
    calls = {}
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                f = node.func
                name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
                calls.setdefault(name, []).append(node)
    return calls


def _defaults_where(trees: dict, callers, passed: bool) -> list:
    """"<module>.<callee>(<name>)" of each optional parameter and defaulted
    dataclass field of the modules `trees`, {stem: tree}, that no call in
    the trees `callers` passes (`passed` True) or that every call passes
    (False)."""
    calls = _calls(callers)
    return [f"{stem}.{callee}({param})" for stem, tree in trees.items()
            for callee, param, position in (*_optional_parameters(tree), *_dataclass_fields(tree))
            if not any(_passes(c, param, position) is passed
                       for name in _subclasses(tree, callee) for c in calls.get(name, ()))]


def test_every_optional_parameter_has_a_caller():
    unset = _defaults_where(TREES, (*TREES.values(), SPEC_TREE), passed=True)
    assert not unset, f"defaults that no call in src/ or the acceptance spec overrides: {unset}"


def test_every_default_is_used():
    """A default that every call overrides is a value no run takes: the
    parameter or field is then required.  A call that passes `*args` or
    `**kwargs` counts as passing every parameter."""
    always = _defaults_where(TREES, (*TREES.values(), SPEC_TREE), passed=False)
    assert not always, f"defaults that every call in src/ or the acceptance spec overrides: {always}"


SYNTHETIC = ast.parse(textwrap.dedent("""
    @dataclass(frozen=True)
    class Record:
        size: int
        mixed: float = 2.0
        always: float = 1.0
        unset: float = 0.0

    @dataclass(frozen=True)
    class Config:
        knob: int = param(3, {})

    def build():
        return Record(2, 7.0, 3.0), Record(size=4, always=5.0), Config()
"""))


def test_the_gates_see_dataclass_fields():
    """On a module of one record, the gates report the field no call sets
    and the field every call sets; the field set by position in one call
    and left in another passes, and a config parameter is not a field
    they check."""
    assert _dataclass_fields(SYNTHETIC) == [
        ("Record", "mixed", 1), ("Record", "always", 2), ("Record", "unset", 3)]
    trees = {"synthetic": SYNTHETIC}
    assert _defaults_where(trees, [SYNTHETIC], passed=True) == ["synthetic.Record(unset)"]
    assert _defaults_where(trees, [SYNTHETIC], passed=False) == ["synthetic.Record(always)"]


def _require_keys(tree):
    """(class name, key, line) of each literal key of a `require(ok, key,
    message)` call in a class's own `__post_init__`."""
    for cls in ast.walk(tree):
        if not isinstance(cls, ast.ClassDef):
            continue
        for method in cls.body:
            if not (isinstance(method, ast.FunctionDef) and method.name == "__post_init__"):
                continue
            for call in ast.walk(method):
                if not (isinstance(call, ast.Call) and isinstance(call.func, ast.Name)
                        and call.func.id == "require"):
                    continue
                keys = call.args[1:2] + [kw.value for kw in call.keywords if kw.arg == "key"]
                yield from ((cls.name, k.value, call.lineno) for k in keys
                            if isinstance(k, ast.Constant))


def test_every_cross_field_check_points_at_a_field():
    """A `ConfigError` from `require` carries /parameters/<key>: the key
    must be a field of the config class, inherited fields included, so
    the pointer names a parameter the config can hold."""
    checked, stray = 0, []
    for stem, tree in TREES.items():
        for cls_name, key, line in _require_keys(tree):
            cls = getattr(importlib.import_module(f"chronolab.{stem}"), cls_name)
            checked += 1
            if key not in {f.name for f in dataclasses.fields(cls)}:
                stray.append(f"{stem}.py:{line} {cls_name}: {key!r}")
    assert checked >= 8
    assert not stray, f"require keys that name no field of their class: {stray}"
