"""The exit-code contract under mutations of the shipped configs.

One key or value of a shipped config is dropped, renamed, swapped for a value
of another type, nested, or duplicated in its list; or the mesh gets a shape
past the size rule, or a spacing anywhere from 1e-308 to 1e308 on one axis.
Then every command the config serves runs in-process.  Whatever the input, a
run exits 0, 1 or 2, raises nothing, warns nothing, writes no report on exit
2 and a JSON report on exit 1.  Whether a non-finite result should exit 2 is
not asked here: an overflowing field reports Infinity and exits 0.
"""

import contextlib
import copy
import io
import json
import tempfile
import warnings
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from formlab.cli import main

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
    float("nan"), 1e300, -1e300, 1e308,
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
def test_every_mutated_config_keeps_the_exit_code_contract(case):
    _run_commands(*case)


@settings(max_examples=10, derandomize=True, database=None, deadline=None)
@given(oversized())
def test_a_mesh_past_the_size_rule_exits_two(case):
    assert set(_run_commands(*case)) == {2}


@settings(max_examples=20, derandomize=True, database=None, deadline=None)
@given(rescaled())
def test_every_spacing_scale_keeps_the_exit_code_contract(case):
    _run_commands(*case)
