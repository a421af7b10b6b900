"""nlgeo/__init__.py keeps two lists by hand, the eager imports and the lazy
names of _LAZY, and derives __all__ from them. They must name the same
public surface."""

import ast
import types
from pathlib import Path

import nlgeo


def _eager_names() -> list[str]:
    """The public names bound by the package's own `from .x import ...` lines."""
    tree = ast.parse(Path(nlgeo.__file__).read_text())
    return [
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
        if not (alias.asname or alias.name).startswith("_")
    ]


def test_all_is_the_eager_and_lazy_names_each_once():
    expected = ["__version__", *_eager_names(), *nlgeo._LAZY]
    assert len(set(expected)) == len(expected)
    assert len(set(nlgeo.__all__)) == len(nlgeo.__all__)
    assert set(nlgeo.__all__) == set(expected)


def test_every_public_name_resolves():
    for name in nlgeo.__all__:
        assert getattr(nlgeo, name) is not None, name


def test_all_holds_no_module_and_no_private_name():
    # the import lines also bind the submodules they import from, and the
    # derivation must leave those out, as it must every underscore name
    for name in nlgeo.__all__:
        assert not isinstance(getattr(nlgeo, name), types.ModuleType), name
        assert name == "__version__" or not name.startswith("_"), name


def _module_imports(tree: ast.Module) -> list[str]:
    """The names that a module's top-level import lines bind."""
    return [
        (alias.asname or alias.name).partition(".")[0]
        for node in tree.body
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__"
        for alias in node.names
    ]


def test_every_module_uses_each_name_it_imports():
    # no linter runs on src/, so an import that a deletion leaves behind is
    # caught here; the package's __init__ imports to re-export, so it is left out
    for path in sorted(Path(nlgeo.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused = [name for name in _module_imports(tree) if name not in used]
        assert not unused, (path.name, unused)
