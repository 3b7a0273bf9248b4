"""The benchmark tracer wraps module-level names; they must all exist.

`perfbench/tracing.py` replaces each `(owner, attr)` it lists with a timing
wrapper.  A name deleted or moved in the package would only surface as a
KeyError in a `--trace 1` run, so the lists are checked here.  The file is
read and executed in memory, so nothing is written next to it.
"""

import pathlib
import types

import pytest

TRACING = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing() -> types.ModuleType:
    module = types.ModuleType("perfbench_tracing")
    module.__file__ = str(TRACING)
    exec(compile(TRACING.read_text(), str(TRACING), "exec"), module.__dict__)
    return module


TRACING_MODULE = load_tracing()


@pytest.mark.parametrize(
    "owner,attr,name",
    TRACING_MODULE.SPAN_TARGETS + TRACING_MODULE.COUNT_TARGETS,
    ids=lambda v: v if isinstance(v, str) else getattr(v, "__name__", None))
def test_traced_name_is_defined_on_its_owner(owner, attr, name):
    assert attr in owner.__dict__, f"{owner.__name__}.{attr} ({name})"
    assert callable(owner.__dict__[attr])
