"""The package's public names: `funcusum.__all__` against `__init__.py`."""

import ast
import pathlib

import funcusum

INIT = pathlib.Path(funcusum.__file__)


def imported_names() -> list[str]:
    """Every name a `from ... import` statement in `__init__.py` binds."""
    tree = ast.parse(INIT.read_text())
    return [alias.asname or alias.name
            for node in tree.body if isinstance(node, ast.ImportFrom)
            for alias in node.names]


def test_all_names_resolve_without_duplicates():
    assert len(funcusum.__all__) == len(set(funcusum.__all__))
    missing = [name for name in funcusum.__all__
               if not hasattr(funcusum, name)]
    assert missing == []


def test_all_is_exactly_the_imported_names():
    imported = imported_names()
    assert len(imported) == len(set(imported))
    assert set(funcusum.__all__) == set(imported)
