"""The library names that the benchmark's traced replay binds.

`perfbench/replay.py` wraps the functions named in its `_WRAPPED` table and
the `__post_init__` of the classes in `_WRAPPED_INIT`.  A rename in
`formlab` would otherwise fail only a traced benchmark run; here it fails a
test.  The tables are read from the file as literals, and nothing under
`perfbench/` is imported or changed.
"""

import ast
import importlib
from pathlib import Path

import pytest

REPLAY = Path(__file__).resolve().parent.parent / "perfbench" / "replay.py"


def _table(name: str) -> dict:
    for node in ast.parse(REPLAY.read_text()).body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets if isinstance(t, ast.Name)] == [name]:
            return ast.literal_eval(node.value)
    raise AssertionError(f"{REPLAY} assigns no {name}")


@pytest.mark.parametrize("module, name", sorted(_table("_WRAPPED")))
def test_every_wrapped_function_resolves(module, name):
    assert callable(getattr(importlib.import_module(f"formlab.{module}"), name))


@pytest.mark.parametrize("module, name", sorted(_table("_WRAPPED_INIT")))
def test_every_wrapped_class_defines_post_init(module, name):
    # a record calls __post_init__ only if its class has one when it is built,
    # so the replay's wrapper must replace one the class itself defines
    cls = getattr(importlib.import_module(f"formlab.{module}"), name)
    assert isinstance(cls, type) and callable(vars(cls).get("__post_init__"))
