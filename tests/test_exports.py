"""The package's public names: `funcusum.__all__` against `__init__.py`,
and how the exported dataclasses compare."""

import ast
import dataclasses
import inspect
import pathlib
import typing

import numpy as np

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


def defines_own(cls, name: str) -> bool:
    """Whether the class body of `cls` itself defines method `name`, as
    against one that @dataclass generated."""
    method = cls.__dict__.get(name)
    return (inspect.isfunction(method)
            and method.__code__.co_filename == inspect.getfile(cls))


def test_dataclasses_with_array_fields_compare_without_array_eq():
    # A generated __eq__ compares the arrays elementwise, so `==` raises,
    # and a frozen dataclass's generated __hash__ hashes an unhashable
    # array.  Each such class compares by identity or defines both.
    bad = []
    for name in funcusum.__all__:
        cls = getattr(funcusum, name)
        if not (isinstance(cls, type) and dataclasses.is_dataclass(cls)):
            continue
        hints = typing.get_type_hints(cls)
        if not any(hints[f.name] is np.ndarray
                   for f in dataclasses.fields(cls)):
            continue
        if "__eq__" in cls.__dict__ and not (
                defines_own(cls, "__eq__") and defines_own(cls, "__hash__")):
            bad.append(name)
    assert bad == []
