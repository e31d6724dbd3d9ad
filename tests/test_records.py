"""The record contract of `formlab._records`: frozen, positional value objects."""

import importlib
import pkgutil

import pytest

import formlab
from formlab._records import field, record
from formlab.config import Scenario
from formlab.dsl import Atom
from formlab.mesh import Cobordism, CubicalComplex, named_cycle


@record()
class Pair:
    left: int
    right: int


@record(eq=False)
class Token:
    name: str


@record()
class Checked:
    value: int

    def __post_init__(self):
        if self.value < 0:
            raise ValueError("negative")


def _formlab_records() -> list:
    """Every record class that formlab defines: its `__init__` runs the code
    that `record` builds."""
    found = set()
    for info in pkgutil.iter_modules(formlab.__path__):
        if info.name == "__main__":
            continue
        for value in vars(importlib.import_module(f"formlab.{info.name}")).values():
            init = getattr(value, "__init__", None)
            if isinstance(value, type) and getattr(init, "__code__", None) is Pair.__init__.__code__:
                found.add(value)
    return sorted(found, key=lambda cls: (cls.__module__, cls.__qualname__))


def test_a_wrong_arity_names_the_class_and_its_fields():
    for args in [(), (1,), (1, 2, 3)]:
        with pytest.raises(TypeError, match=r"^Pair\(left, right\) takes 2 positional arguments"):
            Pair(*args)
    with pytest.raises(TypeError, match=r"^Atom\(name, degree, offset\)"):
        Atom("g", 0)


def test_keywords_are_refused():
    with pytest.raises(TypeError):
        Pair(left=1, right=2)
    with pytest.raises(TypeError):
        Pair(1, right=2)


def test_every_record_refuses_assignment_and_deletion():
    classes = _formlab_records()
    names = {cls.__qualname__ for cls in classes}
    assert {"Atom", "Cell", "Cobordism", "GradedMorphism", "ChargedOperator", "_Ctx"} <= names
    assert Scenario not in classes  # a namespace, built by keyword and filled in later
    for cls in [*classes, Pair, Token]:
        blank = object.__new__(cls)  # no field values needed to try a write
        with pytest.raises(AttributeError, match="cannot assign"):
            blank.x = 1
        with pytest.raises(AttributeError, match="cannot delete"):
            del blank.x
    pair = Pair(1, 2)
    with pytest.raises(AttributeError):
        pair.left = 3
    with pytest.raises(AttributeError):
        del pair.right
    assert (pair.left, pair.right) == (1, 2)


def test_eq_and_hash_run_over_the_compared_fields_only():
    assert Pair(1, 2) == Pair(1, 2) and hash(Pair(1, 2)) == hash(Pair(1, 2))
    assert Pair(1, 2) != Pair(2, 1)
    assert Pair(1, 2) != (1, 2)  # another class never equals a record
    # an atom's offset is where it stood in the source, not what it is
    a, b = Atom("g", 0, 0), Atom("g", 0, 7)
    assert a == b and hash(a) == hash(b) and len({a, b}) == 1
    assert a != Atom("g", 1, 0)
    assert repr(b) == "Atom(name='g', degree=0, offset=7)"


def test_eq_false_compares_and_hashes_by_identity():
    a, b = Token("x"), Token("x")
    assert a == a and a != b
    assert hash(a) == object.__hash__(a)
    assert len({a, b}) == 2


def test_a_field_takes_no_default():
    with pytest.raises(TypeError, match="takes no default"):

        @record()
        class Defaulted:
            value: int = 0

    @record()
    class Uncompared:
        value: int
        note: str = field(compare=False)

    assert "note" not in vars(Uncompared)
    assert Uncompared(1, "a") == Uncompared(1, "b")


def test_a_post_init_set_on_the_class_later_is_the_one_that_runs(monkeypatch):
    with pytest.raises(ValueError):
        Checked(-1)
    ran = []
    monkeypatch.setattr(Checked, "__post_init__", lambda self: ran.append(self.value))
    Checked(-1)
    assert ran == [-1]


def test_a_cobordism_target_is_derived_not_a_field():
    cx = CubicalComplex((4, 4, 4))
    source = named_cycle(cx, {"kind": "loop", "axis": 0, "offsets": [0, 0]})
    filling = named_cycle(cx, {"kind": "cells", "items": [{"degree": 2, "base": [0, 0, 0], "axes": [0, 1]}]})
    cob = Cobordism(cx, filling, source)
    assert cob == Cobordism(cx, filling, source)
    assert "target" not in repr(cob)
