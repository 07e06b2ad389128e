"""One public surface: each library module's __all__ is what the package
exports from it, and every public name of the package is in some __all__."""

import importlib
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
