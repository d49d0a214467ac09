"""The public surface: dynreg.__all__ lists exactly the public names dynreg/__init__.py imports."""

import ast
from pathlib import Path

import dynreg


def imported_public_names() -> list[str]:
    """Every name a `from ... import` statement of dynreg/__init__.py binds, bar _private ones."""
    tree = ast.parse(Path(dynreg.__file__).read_text())
    names = [
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    ]
    return [name for name in names if not name.startswith("_")]


def test_all_is_sorted_without_duplicates():
    assert dynreg.__all__ == sorted(set(dynreg.__all__))


def test_all_is_exactly_the_imported_public_names_and_each_resolves():
    assert sorted(imported_public_names()) == dynreg.__all__
    namespace: dict = {}
    exec("from dynreg import *", namespace)
    assert sorted(name for name in namespace if name != "__builtins__") == dynreg.__all__
