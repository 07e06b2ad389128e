"""One public surface: each library module's __all__ is what the package
exports from it, and every public name of the package is in some __all__;
and no private helper is left without a caller."""

import ast
import importlib
import pathlib
import pkgutil
import types

import pytest

import markedpoints

# cli is the command-line front end; the CLI and the benchmark reach svgplot
# as a module
LIBRARY = sorted(
    name
    for _, name, _ in pkgutil.iter_modules(markedpoints.__path__)
    if not name.startswith("_") and name not in ("cli", "svgplot")
)


@pytest.mark.parametrize("name", LIBRARY)
def test_module_all_is_exported(name):
    module = importlib.import_module(f"markedpoints.{name}")
    assert [n for n in module.__all__ if getattr(markedpoints, n, None) is not getattr(module, n)] == []


def test_package_names_are_in_some_all():
    listed = set().union(*(importlib.import_module(f"markedpoints.{name}").__all__ for name in LIBRARY))
    public = {
        n
        for n in dir(markedpoints)
        if not n.startswith("_") and not isinstance(getattr(markedpoints, n), types.ModuleType)
    }
    assert sorted(public - listed) == []


def _named(node):
    """The identifiers node names: variables, attributes and imported names."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr
        elif isinstance(sub, ast.alias):
            yield sub.name


def test_no_private_helper_is_orphaned():
    # every module-level _private function or class of the package is named
    # somewhere in its source besides its own definition, so a fold that
    # inlines a helper cannot leave the helper behind
    defined, named = [], set()
    for path in sorted(pathlib.Path(markedpoints.__file__).parent.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            names = set(_named(node))
            helper = isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name.startswith("_")
            if helper and not node.name.startswith("__"):
                defined.append((path.name, node.name))
                names.discard(node.name)  # a call to itself is no caller
            named |= names
    assert len(defined) > 20
    assert [f"{module}: {name}" for module, name in defined if name not in named] == []
