"""The exit-code contract under mutations of the shipped configs.

One key or value of a shipped config is dropped, renamed, swapped for a value
of another type, nested, or duplicated in its list; or the mesh gets a shape
past the size rule, or a spacing anywhere from 1e-308 to 1e308 on one axis.
Then every command the config serves runs in-process.  A renamed key of any
config object exits 2, naming the key, as does a cell base outside its
block on a torus, naming the base.  Whatever the input, a run exits 0, 1 or
2, raises nothing, warns nothing, writes one `error:` line and no report on
exit 2 and a JSON report on exit 1.  Whether a non-finite result should exit 2 is
not asked here: an overflowing field reports Infinity and exits 0.
"""

import contextlib
import copy
import io
import json
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from formlab.cli import main
from formlab.config import scenario_from_dict
from formlab.errors import ConfigError

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"

SERVED = {
    "so3_check.json": ("check", "compose"),
    "u2_check.json": ("check", "compose"),
    "so3_defect.json": ("defect",),
    "u2_charges.json": ("charges",),
    "solve_so3.json": ("solve",),
}
SHIPPED = {name: json.loads((CONFIG_DIR / name).read_text()) for name in SERVED}

ODD_VALUES = [
    "x", "", 0, -1, 2, 1.5, True, False, None, [], {}, [1, 2], {"k": 1},
    # digit strings, which a loader that iterates a string reads as a list
    "03", "012",
    float("nan"), 1e300, -1e300, 1e308,
    # past int64 on either side, and past it as an integral float
    2**63, 2**64 - 1, -(2**63) - 1, 1e19,
]
# A mesh shape entry is a cell count per axis.  Meshes that fit run in full,
# so their entries stay small: their cost is a question of time, not of
# parsing.  Meshes past the size rule are drawn by `oversized`.
SHAPE_CAP = 8


def _paths(node, prefix=()):
    """The path of every key and list entry below the root."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


def _in_shape(path) -> bool:
    return path[:2] == ("mesh", "shape")


def _small(value) -> bool:
    return not isinstance(value, (int, float)) or isinstance(value, bool) or not value > SHAPE_CAP


def _parent(cfg, path):
    for key in path[:-1]:
        cfg = cfg[key]
    return cfg


def _swapped(name, path, value):
    cfg = copy.deepcopy(SHIPPED[name])
    _parent(cfg, path)[path[-1]] = value
    return name, cfg


@st.composite
def mutated(draw):
    name = draw(st.sampled_from(sorted(SERVED)))
    cfg = copy.deepcopy(SHIPPED[name])
    path = draw(st.sampled_from(list(_paths(cfg))))
    parent, key = _parent(cfg, path), path[-1]
    op = draw(st.sampled_from(["drop", "rename", "swap", "nest", "grow"]))
    if op == "drop":
        del parent[key]
    elif op == "rename" and isinstance(parent, dict):
        parent[key + "_"] = parent.pop(key)
    elif op == "nest":
        parent[key] = draw(st.sampled_from([[parent[key]], {"value": parent[key]}]))
    elif op == "grow" and isinstance(parent, list):
        parent.insert(key, copy.deepcopy(parent[key]))
    else:
        pool = [v for v in ODD_VALUES if _small(v)] if _in_shape(path) else ODD_VALUES
        parent[key] = draw(st.sampled_from(pool))
    return name, cfg


@st.composite
def renamed(draw):
    """A shipped config with one key of one object renamed as `mutated` does,
    and the new key.  The keys of group_elements are names, not fixed keys."""
    name = draw(st.sampled_from(sorted(SERVED)))
    cfg = copy.deepcopy(SHIPPED[name])
    paths = [p for p in _paths(cfg) if isinstance(_parent(cfg, p), dict) and p[:-1] != ("group_elements",)]
    path = draw(st.sampled_from(paths))
    parent = _parent(cfg, path)
    parent[path[-1] + "_"] = parent.pop(path[-1])
    return name, cfg, path[-1] + "_"


@st.composite
def oversized(draw):
    """A shipped config whose mesh has at least 2**63 vertices: past the size
    rule, and so far past it that numpy refuses even one float per cell
    without allocating."""
    name = draw(st.sampled_from(sorted(SERVED)))
    cfg = copy.deepcopy(SHIPPED[name])
    d = len(cfg["mesh"]["shape"])
    least = 2 ** -(-63 // d)  # least**d >= 2**63
    cfg["mesh"]["shape"] = draw(st.lists(st.integers(least, 2**80), min_size=d, max_size=d))
    return name, cfg


@st.composite
def rescaled(draw):
    """A shipped config with one spacing entry at 10**e, e in [-308, 308]."""
    name = draw(st.sampled_from(sorted(SERVED)))
    cfg = copy.deepcopy(SHIPPED[name])
    spacing = cfg["mesh"].get("spacing") or [1.0] * len(cfg["mesh"]["shape"])
    spacing[draw(st.integers(0, len(spacing) - 1))] = 10.0 ** draw(st.integers(-308, 308))
    cfg["mesh"]["spacing"] = spacing
    return name, cfg


def _run_commands(name, cfg) -> list:
    """Run every command the config serves; check the contract; return the codes."""
    codes = []
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / name
        config.write_text(json.dumps(cfg))
        for command in SERVED[name]:
            out = Path(tmp) / f"{command}.out.json"
            stdout, stderr = io.StringIO(), io.StringIO()
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                    code = main([command, str(config), "--out", str(out)])
            assert code in (0, 1, 2), (command, cfg)
            assert not caught, (command, cfg, [str(w.message) for w in caught])
            assert "Traceback" not in stderr.getvalue(), (command, cfg)
            if code == 2:
                assert not out.exists(), (command, cfg)
                assert stderr.getvalue().startswith("error: "), (command, cfg)
                assert stderr.getvalue().count("\n") == 1, (command, cfg)
            else:
                json.loads(out.read_text())
                out.unlink()
            codes.append(code)
    return codes


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(mutated())
# finite values that random runs found overflowing into numpy warnings
@example(_swapped("so3_check.json", ("mesh", "spacing", 0), 1e308))
@example(_swapped("so3_defect.json", ("field", "init", "stddev"), 1e308))
# a loop offset that numpy would read as uint64
@example(_swapped("so3_defect.json", ("defects", 0, "charged", "support", "offsets", 0), 2**63))
def test_every_mutated_config_keeps_the_exit_code_contract(case):
    _run_commands(*case)


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(renamed())
def test_every_renamed_key_exits_two_naming_it(case):
    name, cfg, key = case
    assert set(_run_commands(name, cfg)) == {2}
    with pytest.raises(ConfigError) as raised:
        scenario_from_dict(cfg, base_dir=CONFIG_DIR)
    assert repr(key) in str(raised.value)


# a cell item of a shipped torus config, by the key that reads it, and its path
CELL_ITEMS = {
    "filling": ("so3_defect.json", ("defects", 0, "move", "filling", "items", 0)),
    "fixed": ("solve_so3.json", ("field", "init", "fixed", 0)),
    "explicit": ("solve_so3.json", ("field", "init", "cells", 0)),
}


@pytest.mark.parametrize("coordinate", [-1, "n", 2**63, 10**30])
@pytest.mark.parametrize("place", sorted(CELL_ITEMS))
def test_a_torus_cell_base_outside_its_block_exits_two_naming_it(place, coordinate):
    # nothing wraps a cell base, as nothing wraps a loop offset or a CSV row:
    # a config written for a torus of another size names no cell of this one
    name, path = CELL_ITEMS[place]
    cfg = copy.deepcopy(SHIPPED[name])
    if place == "explicit":
        cfg["field"]["init"] = {"init": "explicit", "cells": cfg["field"]["init"]["fixed"]}
    base = _parent(cfg, path)[path[-1]]["base"]
    base[0] = cfg["mesh"]["shape"][0] if coordinate == "n" else coordinate
    assert set(_run_commands(name, cfg)) == {2}
    with pytest.raises(ConfigError, match="outside the block") as raised:
        scenario_from_dict(cfg, base_dir=CONFIG_DIR)
    assert str(tuple(base)) in str(raised.value)


@settings(max_examples=10, derandomize=True, database=None, deadline=None)
@given(oversized())
def test_a_mesh_past_the_size_rule_exits_two(case):
    assert set(_run_commands(*case)) == {2}


@settings(max_examples=20, derandomize=True, database=None, deadline=None)
@given(rescaled())
def test_every_spacing_scale_keeps_the_exit_code_contract(case):
    _run_commands(*case)
