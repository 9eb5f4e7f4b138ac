"""Stale imports and exports in the package source.

No linter is a dependency, so these checks walk each module's syntax
tree: every module-level import is used in its module, every `__all__`
entry is defined there, and the package exports exactly the union of
its public modules' `__all__` lists.
"""

import ast
import importlib
import inspect
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
