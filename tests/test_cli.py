import copy
import json
import math
import os
import resource
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import formlab
from formlab import COMPLEX_PAIR, Cochain, CubicalComplex, FormlabError, REAL_SCALAR, algebra_fiber, eom_residual, max_norm, so3, solve_free
from formlab import fieldio
from formlab.cli import main
from formlab.fieldio import emit_field_csv, load_field_csv

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def write_config(tmp_path, cfg, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg, indent=2))
    return str(path)


def base_config(**overrides):
    cfg = {
        "mesh": {"shape": [4, 4, 4]},
        "algebra": "so3",
        "field": {"degree": 1, "fiber": "algebra", "init": {"init": "zero"}},
        "seed": 0,
    }
    cfg.update(overrides)
    return cfg


def test_check_on_shipped_scenario_passes(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main(["check", str(CONFIG_DIR / "so3_check.json"), "--out", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["command"] == "check"
    assert all(c["passed"] for c in report["checks"])
    assert report["provenance"]["version"]


def test_check_on_u2_scenario_passes(tmp_path):
    out = tmp_path / "report.json"
    code = main(["check", str(CONFIG_DIR / "u2_check.json"), "--out", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    assert all(c["passed"] for c in report["checks"])


def test_complex_pair_fiber_requires_u2(tmp_path):
    cfg = base_config()
    cfg["field"] = {"degree": 1, "fiber": "complex_pair", "init": {"init": "zero"}}
    assert main(["check", write_config(tmp_path, cfg)]) == 2


def test_check_reports_are_byte_identical(tmp_path):
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    assert main(["check", str(CONFIG_DIR / "so3_check.json"), "--out", str(out1)]) == 0
    assert main(["check", str(CONFIG_DIR / "so3_check.json"), "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_compose_degree_mismatch_exits_one(tmp_path, capsys):
    cfg = base_config(
        group_elements={
            "g": {"type": "exp", "coeffs": [1.0, 0.0, 0.0]},
            "h": {"type": "exp", "coeffs": [0.0, 0.0, 1.0]},
        },
        compose="g[0] . h[0]",
    )
    code = main(["compose", write_config(tmp_path, cfg)])
    assert code == 1
    report = json.loads(capsys.readouterr().out)
    assert report == {
        "ok": False,
        "diagnostic": {
            "kind": "degree_mismatch",
            "offset": 7,
            "message": report["diagnostic"]["message"],
        },
    }


def test_compose_success_reports_degrees(tmp_path, capsys):
    cfg = base_config(
        group_elements={
            "g": {"type": "exp", "coeffs": [1.0, 0.0, 0.0]},
            "h": {"type": "exp", "coeffs": [0.0, 0.0, 1.0]},
        },
        compose="g[0] . h[1]",
    )
    code = main(["compose", write_config(tmp_path, cfg)])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["ok"] is True
    assert (report["source_degree"], report["target_degree"]) == (1, 1)
    assert len(report["group_element_matrix"]) == 3


def test_charges_on_constant_field_vanish(tmp_path, capsys):
    cfg = base_config(
        field={
            "degree": 1,
            "fiber": "algebra",
            "init": {
                "init": "explicit",
                "cells": [
                    {"base": [0, 0, 0], "axes": [0], "value": [1.0, 2.0, 3.0]}
                ],
            },
        },
        charges=[
            {"name": "plane", "kind": "eom", "support": {"kind": "plane", "normal": 2, "offset": 1}},
            {"name": "loop", "kind": "trivial", "support": {"kind": "loop", "axis": 1, "offsets": [2, 2]}},
        ],
    )
    # overwrite: constant field has every charge zero
    cfg["field"]["init"] = {"init": "zero"}
    code = main(["charges", write_config(tmp_path, cfg)])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    values = np.array([r["value"] for r in report["results"]], dtype=float)
    assert np.max(np.abs(values)) == 0.0


def test_charges_of_a_0_form_take_a_loop_for_eom_and_a_plane_for_trivial(tmp_path, capsys):
    # a p-form's eom charge needs a (p+1)-chain and its trivial charge a
    # (d-p-1)-cycle: on a 3-D torus, a loop and a plane for a 0-form
    cfg = json.loads((CONFIG_DIR / "so3_check.json").read_text())
    cfg["field"]["degree"] = 0
    cfg["charges"] = [
        {"kind": "eom", "support": {"kind": "loop", "axis": 1, "offsets": [2, 3]}},
        {"kind": "trivial", "support": {"kind": "plane", "normal": 0, "offset": 1}},
    ]
    assert main(["charges", write_config(tmp_path, cfg)]) == 0
    eom, trivial = json.loads(capsys.readouterr().out)["results"]
    # d psi integrates to 0 over a closed loop, to rounding
    assert np.max(np.abs(eom["value"])) <= 1e-12
    assert np.max(np.abs(trivial["value"])) > 1e-3


def test_defect_command_matches_direct_api(tmp_path, capsys):
    code = main(["defect", str(CONFIG_DIR / "so3_defect.json")])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    by_name = {r["name"]: r for r in report["results"]}
    crossing = by_name["crossing_sweep"]
    assert crossing["crossings"] == 1
    assert (crossing["degree_before"], crossing["degree_after"]) == (0, 1)
    clear = by_name["clear_sweep"]
    assert clear["crossings"] == 0
    assert clear["observable_before"] == clear["observable_after"]


def test_defect_degrees_are_parsed_once(tmp_path, capsys):
    from formlab.config import load_scenario

    cfg = json.loads((CONFIG_DIR / "so3_defect.json").read_text())
    req = cfg["defects"][0]
    req["degree"] = "1"  # a numeric string counts as its number
    del req["charged"]["degree"]  # defaults to the defect's degree
    path = write_config(tmp_path, cfg)
    _, move, _, charged_degree = load_scenario(path).defect_moves[0]
    assert (move.operator.degree, charged_degree) == (1, 1)
    assert main(["defect", path]) == 0
    crossing = json.loads(capsys.readouterr().out)["results"][0]
    assert (crossing["degree_before"], crossing["degree_after"]) == (1, 0)


def test_solve_command_reports_residuals(tmp_path, capsys):
    code = main(["solve", str(CONFIG_DIR / "solve_so3.json")])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    results = report["results"]
    assert results["eom_residual_norm"] <= 1e-10
    assert results["trivial_current_norm"] <= 1e-13
    assert results["action"] >= 0.0


@pytest.mark.parametrize("topology", ["torus", "box"])
def test_solve_command_writes_field_csv(tmp_path, capsys, topology):
    # a box solve runs plain CG; a torus solve is preconditioned
    cfg = json.loads((CONFIG_DIR / "solve_so3.json").read_text())
    cfg["mesh"]["topology"] = topology
    out_csv = tmp_path / "field.csv"
    code = main(["solve", write_config(tmp_path, cfg), "--field-csv", str(out_csv), "--out", str(tmp_path / "r.json")])
    assert code == 0
    assert capsys.readouterr().err == ""
    lines = out_csv.read_text().splitlines()
    cx = CubicalComplex([6, 6, 6], topology=topology)
    assert len(lines) == 1 + cx.cell_count(1) * 3


@pytest.mark.parametrize(
    "spacing",
    [[1e-57, 1, 1], [1e-24, 1, 1], [1e-8, 1, 1], [1e-4, 1, 1], [1e4, 1, 1], [1, 1e-57, 1]],
)
def test_solve_on_an_anisotropic_torus_succeeds(tmp_path, capsys, spacing):
    # the 2-cell star factors differ between axis blocks: at 1e-4 and 1e4 the
    # 1-form solve runs the preconditioner read off the operator's symbol;
    # the other spacings leave that symbol too ill-conditioned for an exact
    # pseudo-inverse, and the solve runs plain CG, as a box does
    cfg = json.loads((CONFIG_DIR / "solve_so3.json").read_text())
    cfg["mesh"]["spacing"] = spacing
    out = tmp_path / "report.json"
    assert main(["solve", write_config(tmp_path, cfg), "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    assert json.loads(out.read_text())["results"]["action"] >= 0.0


def test_ill_conditioned_solve_names_both_causes(tmp_path, capsys):
    # from an axis-0 spacing of 1e8 up the kernel probe stops the solve at
    # once; it cannot tell an incompatible source from an operator that
    # rounding has made singular, so the message names both
    cfg = json.loads((CONFIG_DIR / "solve_so3.json").read_text())
    cfg["mesh"]["spacing"] = [1e8, 1, 1]
    out = tmp_path / "report.json"
    assert main(["solve", write_config(tmp_path, cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and "ill-conditioned" in err[0], err
    assert not out.exists()


def _every_command_config():
    """so3_check.json with the defects of so3_defect.json and the charges of
    u2_charges.json: a config on which all five commands exit 0."""
    cfg = json.loads((CONFIG_DIR / "so3_check.json").read_text())
    cfg["defects"] = json.loads((CONFIG_DIR / "so3_defect.json").read_text())["defects"]
    cfg["charges"] = json.loads((CONFIG_DIR / "u2_charges.json").read_text())["charges"]
    return cfg


COMMANDS = ["solve", "charges", "defect", "compose", "check"]


def _one_cell(**item):
    return [{"base": [0, 0, 0], "axes": [0], "value": [1, 0, 0], **item}]


def _naming(key, edit):
    """`edit`, marked with the key that the error line it causes must name."""
    edit.key = key
    return edit


def _stray(where, key, value=0):
    """An edit that writes `key`, which that object does not hold, into the
    config object that `where` picks."""
    return _naming(key, lambda c: where(c).__setitem__(key, value))


def _field_init(c, **init):
    """Give the config the field init `init`, and return it."""
    c["field"]["init"] = init
    return init


def _filling(c):
    """The cells spec that fills the first defect's move."""
    return c["defects"][0]["move"]["filling"]


def _rename_default(c):
    # charge 2 loses its name, and its default is what charge 0 is named
    c["charges"][0]["name"] = "charge_2"
    del c["charges"][2]["name"]


IDENTITY = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]


@pytest.mark.parametrize("command", COMMANDS)
def test_every_command_runs_the_combined_config(tmp_path, capsys, command):
    out = tmp_path / "report.json"
    assert main([command, write_config(tmp_path, _every_command_config()), "--out", str(out)]) == 0
    assert out.exists()


def test_loading_leaves_the_config_dict_as_written():
    from formlab.config import scenario_from_dict

    cfg = _every_command_config()
    req = cfg["defects"][0]
    req["degree"] = "1"
    del req["charged"]["degree"]
    written = copy.deepcopy(cfg)
    scenario = scenario_from_dict(cfg)
    assert cfg == written
    assert scenario.defects[0] is req


@pytest.mark.parametrize("command", COMMANDS)
@pytest.mark.parametrize(
    "edit",
    [
        lambda c: c["field"].update(degree=5),
        lambda c: c["field"]["init"].update(stddev=-1),
        lambda c: c["field"]["init"].update(init="bogus"),
        lambda c: c["field"]["init"].update(seed=-3),
        lambda c: c["field"].update(init={"init": "explicit", "cells": _one_cell(base=[0, 0])}),
        lambda c: c["field"].update(init={"init": "solve", "fixed": _one_cell(value="x")}),
        lambda c: c["field"].update(init={"init": "solve", "source": {"cells": _one_cell(axes=[7])}}),
        lambda c: c["field"].update(init={"init": "explicit", "csv": 5}),
        lambda c: c["defects"][0].update(support={"kind": "nope"}),
        lambda c: c["defects"][0]["support"].update(axis=9),
        lambda c: c["charges"][1]["support"].update(normal=7),
        # chains that resolve but that the charges or defect command cannot use
        lambda c: c["charges"][1].update(support={"kind": "loop", "axis": 0, "offsets": [0, 0]}),
        lambda c: c["charges"][2].update(support={"kind": "cells", "items": [{"degree": 1, "base": [0, 0, 0], "axes": [0]}]}),
        lambda c: c["defects"][0].update(support={"kind": "plane", "normal": 0, "offset": 0}),
        lambda c: c["defects"][0]["charged"].update(degree=1),
        # a defect acts on the field's fiber, and a real scalar carries no action
        lambda c: c["field"].update(fiber="real_scalar"),
        # every config has a mesh: no command runs without one
        lambda c: c.pop("mesh"),
        # one misspelled key per kind of config object, or a key that its
        # kind does not hold though another kind does
        _stray(lambda c: c["mesh"], "topolgy", "box"),
        _stray(lambda c: c["field"], "fibre", "real_scalar"),
        _stray(lambda c: _field_init(c, init="zero"), "seed", 3),
        _stray(lambda c: c["field"]["init"], "stdev", 5.0),
        _stray(lambda c: _field_init(c, init="explicit", cells=_one_cell()), "cvs"),
        _stray(lambda c: _field_init(c, init="solve", fixed=_one_cell()), "seed"),
        _stray(lambda c: _field_init(c, init="solve", source={"cells": _one_cell()})["source"], "cell"),
        _stray(lambda c: _field_init(c, init="explicit", cells=_one_cell())["cells"][0], "valeu"),
        _stray(lambda c: c["group_elements"]["g"], "rows", IDENTITY),
        _stray(lambda c: c["group_elements"].setdefault("m", {"type": "matrix", "rows": IDENTITY}), "row"),
        _stray(lambda c: c["charges"][0], "nmae", "q"),
        _stray(lambda c: c["defects"][0], "suport"),
        _stray(lambda c: c["defects"][0]["move"], "filing"),
        _stray(lambda c: c["defects"][0]["charged"], "degre", 1),
        _stray(lambda c: c["defects"][0]["support"], "offset"),
        _stray(lambda c: c["charges"][1]["support"], "offest"),
        _stray(lambda c: c["charges"][0]["support"], "item", []),
        _stray(lambda c: c["charges"][0]["support"]["items"][0], "coeff", 1),
        # a request name is a string that no other request of its kind has
        _naming("name", lambda c: c["charges"][0].update(name=None)),
        _naming("name", lambda c: c["charges"][1].update(name=5)),
        _naming("name", lambda c: c["defects"][0].update(name={"x": 1})),
        _naming("name", lambda c: c["defects"][1].update(name=c["defects"][0]["name"])),
        _naming("name", _rename_default),
        # a string, number or object where an array belongs: never read as a list
        _naming("offsets", lambda c: c["defects"][0]["charged"]["support"].update(offsets="03")),
        _naming("offsets", lambda c: c["defects"][0]["support"].update(offsets=5)),
        _naming("items", lambda c: _filling(c).update(items=5)),
        _naming("base", lambda c: _filling(c)["items"][0].update(base="003")),
        _naming("axes", lambda c: _filling(c)["items"][0].update(axes="12")),
        _naming("base", lambda c: _field_init(c, init="explicit", cells=_one_cell(base="000"))),
        _naming("axes", lambda c: _field_init(c, init="solve", fixed=_one_cell(axes="0"))),
        _naming("value", lambda c: _field_init(c, init="explicit", cells=_one_cell(value="100"))),
        _naming("rows", lambda c: c["group_elements"].update(m={"type": "matrix", "rows": [[1, 0, 0], [0, 1], [0, 0, 1]]})),
        _naming("spacing", lambda c: c["mesh"].update(spacing={"1": 1, "2": 1, "3": 1})),
    ],
    ids=[
        "degree", "stddev", "init", "seed", "cells", "fixed", "source", "csv",
        "defect_kind", "loop_axis", "plane_normal",
        "eom_on_a_loop", "trivial_off_a_cycle", "defect_on_a_plane", "charged_parity",
        "defect_on_a_scalar_field", "no_mesh",
        "mesh_key", "field_key", "zero_init_key", "random_gaussian_init_key", "explicit_init_key",
        "solve_init_key", "source_key", "cell_item_key", "exp_element_key", "matrix_element_key",
        "charge_key", "defect_key", "move_key", "charged_key", "loop_key", "plane_key", "cells_key",
        "chain_item_key",
        "null_charge_name", "number_charge_name", "object_defect_name", "shared_defect_name",
        "name_shared_with_a_default",
        "string_offsets", "number_offsets", "number_items", "string_chain_base", "string_chain_axes",
        "string_cell_base", "string_fixed_axes", "string_cell_value", "ragged_rows", "object_spacing",
    ],
)
def test_every_command_rejects_the_same_malformed_config(tmp_path, capsys, command, edit):
    # a config is checked whole as it loads, so a fault in a part that this
    # command does not run still exits 2
    cfg = _every_command_config()
    edit(cfg)
    out = tmp_path / "report.json"
    assert main([command, write_config(tmp_path, cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: "), err
    assert not out.exists()
    if hasattr(edit, "key"):
        assert repr(edit.key) in err[0], err


@pytest.mark.parametrize("command", COMMANDS)
@pytest.mark.parametrize(
    "edit, message",
    [
        # no free-field operator acts on top-degree fields: compose, which
        # builds no field, rejects the config too
        (lambda c: c["field"].update(degree=3, init={"init": "solve"}), "no free-field operator at top degree"),
        (
            lambda c: c.update(
                mesh={**c["mesh"], "topology": "box"},
                field={**c["field"], "init": {"init": "explicit", "cells": _one_cell(base=[10**30, 0, 0])}},
            ),
            "bad cell reference",
        ),
        # a 0-form's eom charge takes a 1-chain
        (
            lambda c: c.update(
                field={**c["field"], "degree": 0},
                charges=[{"kind": "eom", "support": {"kind": "plane", "normal": 0, "offset": 0}}],
            ),
            "expected a degree-1 chain, got degree 2",
        ),
    ],
    ids=["solve_at_top_degree", "box_base_past_int64", "eom_on_a_plane_for_a_0_form"],
)
def test_every_command_rejects_one_fault_of_so3_check(tmp_path, capsys, command, edit, message):
    cfg = json.loads((CONFIG_DIR / "so3_check.json").read_text())
    edit(cfg)
    out = tmp_path / "report.json"
    assert main([command, write_config(tmp_path, cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and message in err[0], err
    assert not out.exists()


@pytest.mark.parametrize("command", ["check", "compose"])
@pytest.mark.parametrize(
    "data",
    [
        b'{"seed": 1, "x": "\xff\xfe"}',
        b"[" * 100000 + b"]" * 100000,
        b'{"seed": ' + b"9" * 5000 + b"}",
        b"\xef\xbb\xbf" + json.dumps(base_config()).encode(),
    ],
    ids=["not_utf8", "nested_past_recursion_limit", "integer_past_digit_limit", "utf8_bom"],
)
def test_config_that_json_cannot_decode_exits_two(tmp_path, capsys, command, data):
    path = tmp_path / "scenario.json"
    path.write_bytes(data)
    out = tmp_path / "report.json"
    assert main([command, str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: "), err
    assert not out.exists()


@pytest.mark.parametrize("command", COMMANDS)
@pytest.mark.parametrize("config", ["so3_defect", "combined"])
def test_each_chain_spec_resolves_once_per_run(tmp_path, monkeypatch, command, config):
    import formlab.config

    if config == "combined":
        cfg = _every_command_config()
    else:
        cfg = json.loads((CONFIG_DIR / "so3_defect.json").read_text())
        cfg["compose"] = "g[0]"
    specs = [req["support"] for req in cfg.get("charges", [])]
    for req in cfg["defects"]:
        specs += [req["support"], req["move"]["filling"], req["charged"]["support"]]
    calls = []

    def counted(cx, spec):
        calls.append(spec)
        return formlab.mesh.named_cycle(cx, spec)

    monkeypatch.setattr(formlab.config, "named_cycle", counted)
    assert main([command, write_config(tmp_path, cfg), "--out", str(tmp_path / "report.json")]) == 0
    assert calls == specs


@pytest.mark.parametrize(
    "command, config",
    [
        ("check", "so3_check.json"),
        ("check", "u2_check.json"),
        ("solve", "solve_so3.json"),
        ("charges", "u2_charges.json"),
    ],
)
def test_each_command_forms_the_field_strength_once(tmp_path, monkeypatch, command, config):
    # every cochain that d, star and build_field return is kept, so each new
    # result is a distinct object: the field's d psi and star d psi must each
    # be formed once, however many checks, charges and reports read them
    import formlab.calculus
    import formlab.checks  # bound before patching, so that undo restores it too

    originals = {
        "d": formlab.calculus.d, "star": formlab.calculus.star, "build_field": formlab.config.build_field,
    }
    made = {name: [] for name in originals}

    def recorded(name):
        def call(*args):
            made[name].append(originals[name](*args))
            return made[name][-1]

        return call

    for module_name, module in list(sys.modules.items()):
        if module_name.startswith("formlab."):
            for name, fn in originals.items():
                if getattr(module, name, None) is fn:
                    monkeypatch.setattr(module, name, recorded(name))
    assert main([command, str(CONFIG_DIR / config), "--out", str(tmp_path / "report.json")]) in (0, 1)
    monkeypatch.undo()
    (field,) = made["build_field"]
    dpsi = formlab.calculus.d(Cochain(field.complex, field.degree, field.fiber, field.values))
    star_dpsi = formlab.calculus.star(dpsi)
    for name, reference in (("d", dpsi), ("star", star_dpsi)):
        formed = {
            id(c) for c in made[name]
            if c.degree == reference.degree and np.array_equal(c.values, reference.values)
        }
        assert len(formed) == 1, (name, len(formed))


def test_exit_two_on_config_errors(tmp_path, capsys):
    missing = main(["check", str(tmp_path / "nope.json")])
    assert missing == 2

    bad_json = tmp_path / "bad.json"
    bad_json.write_text("{not json")
    assert main(["check", str(bad_json)]) == 2

    unknown_key = write_config(tmp_path, base_config(surprise=1), "unknown.json")
    assert main(["check", unknown_key]) == 2

    unresolved = write_config(
        tmp_path,
        base_config(
            defects=[
                {
                    "g": "ghost",
                    "degree": 0,
                    "support": {"kind": "loop", "axis": 1, "offsets": [0, 0]},
                    "move": {"filling": {"kind": "plane", "normal": 0, "offset": 0}},
                    "charged": {"degree": 0, "support": {"kind": "loop", "axis": 0, "offsets": [0, 0]}},
                }
            ]
        ),
        "unresolved.json",
    )
    assert main(["defect", unresolved]) == 2

    bad_tol = write_config(tmp_path, base_config(tolerances={"check": -1.0}), "tol.json")
    assert main(["check", bad_tol]) == 2

    # malformed values inside an otherwise valid defect scenario
    shipped = json.loads((CONFIG_DIR / "so3_defect.json").read_text())

    def variant(config, name, edit):
        cfg = json.loads((CONFIG_DIR / config).read_text())
        edit(cfg)
        return write_config(tmp_path, cfg, name)

    cx = CubicalComplex(shipped["mesh"]["shape"])
    csv_path = tmp_path / "field.csv"
    emit_field_csv(Cochain.zeros(cx, 1, algebra_fiber(so3())), csv_path)
    rows = csv_path.read_text().splitlines()
    rows[1] = "x" + rows[1][1:]  # a non-integer degree
    csv_path.write_text("\n".join(rows) + "\n")

    malformed = [
        lambda c: c["defects"][0]["support"].pop("axis"),
        lambda c: c.update(seed="x"),
        lambda c: c["field"].update(degree="one"),
        lambda c: c["defects"][0]["move"]["filling"]["items"][0].update(base=["a", 0, 3]),
        lambda c: c["field"].update(init={"init": "explicit", "csv": "field.csv"}),
        lambda c: c["defects"][0].update(degree="x"),
        lambda c: c.update(tolerances={"check": "x"}),
        lambda c: c["field"]["init"].update(stddev="x"),
        # a standard deviation is a finite number >= 0
        lambda c: c["field"]["init"].update(stddev=float("nan")),
        lambda c: c["field"]["init"].update(stddev=float("inf")),
        lambda c: c["field"]["init"].update(stddev=-1.0),
        lambda c: c["field"]["init"].update(seed=[1]),
        lambda c: c["field"]["init"].update(seed=-1),
        lambda c: c.update(seed=-1),
        lambda c: c["field"].update(
            init={"init": "solve", "fixed": [{"base": [0, 0, 0], "axes": [0], "value": "abc"}]}
        ),
    ]
    for n, edit in enumerate(malformed):
        out = tmp_path / f"malformed{n}.out.json"
        assert main(["defect", variant("so3_defect.json", f"malformed{n}.json", edit), "--out", str(out)]) == 2, n
        assert not out.exists()

    # wrong JSON types and missing keys where the config is read
    wrong_types = [
        ("solve", "solve_so3.json", lambda c: c.update(tolerances=1.5)),
        ("check", "so3_check.json", lambda c: c.update(tolerances=1.5)),
        ("check", "so3_check.json", lambda c: c.update(checks=0)),
        ("compose", "so3_check.json", lambda c: c.update(compose=[1])),
        ("charges", "u2_charges.json", lambda c: c.update(charges=1.5)),
        ("solve", "solve_so3.json", lambda c: c["field"]["init"].update(fixed=None)),
        ("solve", "solve_so3.json", lambda c: c["field"]["init"]["fixed"][0].pop("value")),
        ("check", "so3_check.json", lambda c: c.update(algebra=[])),
        ("defect", "so3_defect.json", lambda c: c["defects"][0].update(g=[])),
        ("defect", "so3_defect.json", lambda c: c["defects"][0]["move"]["filling"]["items"][0].update(coef=10**30)),
    ]
    # a cell base needs one coordinate per axis, and a fractional number
    # where an integer belongs is an error, not truncated
    def filling_item(c):
        return c["defects"][0]["move"]["filling"]["items"][0]

    def solve_fixed(c):
        return c["field"]["init"]["fixed"][0]

    def explicit(base):
        return {"init": "explicit", "cells": [{"base": base, "axes": [0], "value": [1, 0, 0]}]}

    wrong_types += [
        ("defect", "so3_defect.json", lambda c: filling_item(c).update(base=[0, 0])),
        ("defect", "so3_defect.json", lambda c: filling_item(c).update(base=[0, 0, 3, 9])),
        ("solve", "solve_so3.json", lambda c: solve_fixed(c).update(base=[0, 0])),
        ("solve", "solve_so3.json", lambda c: solve_fixed(c).update(base=[0, 0, 3, 9])),
        ("solve", "solve_so3.json", lambda c: c["field"].update(init=explicit([0, 0]))),
        ("solve", "solve_so3.json", lambda c: c["field"].update(init=explicit([0, 0, 3, 9]))),
        ("defect", "so3_defect.json", lambda c: filling_item(c).update(coef=1.7)),
        ("defect", "so3_defect.json", lambda c: filling_item(c).update(base=[0.5, 0, 3])),
        ("defect", "so3_defect.json", lambda c: c["defects"][0]["support"].update(offsets=[0.5, 3])),
        ("defect", "so3_defect.json", lambda c: c["defects"][0].update(degree=0.5)),
        ("defect", "so3_defect.json", lambda c: c["field"].update(degree=1.5)),
        ("defect", "so3_defect.json", lambda c: c.update(seed=2.5)),
        ("defect", "so3_defect.json", lambda c: c.update(seed=float("inf"))),  # JSON Infinity
        ("defect", "so3_defect.json", lambda c: c["field"]["init"].update(seed=5.5)),
        ("solve", "solve_so3.json", lambda c: solve_fixed(c).update(base=[0.5, 0, 0])),
        ("solve", "solve_so3.json", lambda c: c["mesh"].update(shape=[6.5, 6, 6])),
        ("solve", "solve_so3.json", lambda c: c["mesh"].update(shape="444")),
        ("solve", "solve_so3.json", lambda c: c["field"].update(init={"init": "explicit", "csv": 5})),
        # a JSON boolean is not a number, and a NaN tolerance is not positive
        ("defect", "so3_defect.json", lambda c: filling_item(c).update(coef=True)),
        ("defect", "so3_defect.json", lambda c: c.update(seed=False)),
        ("check", "so3_check.json", lambda c: c.update(tolerances={"check": float("nan")})),
        # an infinite tolerance would pass every check it bounds
        ("check", "so3_check.json", lambda c: c.update(tolerances={"check": float("inf")})),
        # every config float follows the same rule: matrix entries, exp
        # coefficients and fiber values of each kind
        ("compose", "so3_check.json", lambda c: c["group_elements"].update(
            g={"type": "matrix", "rows": [[True, 0, 0], [0, True, 0], [0, 0, True]]})),
        ("compose", "so3_check.json", lambda c: c["group_elements"].update(
            g={"type": "exp", "coeffs": [True, 0, 0]})),
        # exp coefficients that overflow the algebra matrix, with no warning
        ("compose", "u2_check.json", lambda c: c["group_elements"].update(
            u={"type": "exp", "coeffs": [1.7e308, 0, 0, 1.7e308]})),
        ("solve", "solve_so3.json", lambda c: solve_fixed(c).update(value=[True, 0, 0])),
        ("solve", "u2_charges.json", lambda c: c["field"].update(init={
            "init": "explicit",
            "cells": [{"base": [0, 0, 0], "axes": [0], "value": [[True, 0], [0, 0]]}],
        })),
        ("solve", "solve_so3.json", lambda c: c["field"].update(fiber="real_scalar", init={
            "init": "solve", "fixed": [{"base": [0, 0, 0], "axes": [0], "value": True}],
        })),
        # a spacing must give finite positive cell volumes and star factors
        ("solve", "solve_so3.json", lambda c: c["mesh"].update(spacing=float("inf"))),
        ("check", "solve_so3.json", lambda c: c["mesh"].update(spacing=float("inf"))),
        ("solve", "solve_so3.json", lambda c: c["mesh"].update(spacing=[1, 1, float("inf")])),
        ("check", "solve_so3.json", lambda c: c["mesh"].update(spacing=[1, 1, float("inf")])),
        # an integer past the float range is a config error, not an OverflowError
        ("solve", "solve_so3.json", lambda c: solve_fixed(c).update(value=[10**400, 0, 0])),
        ("compose", "so3_check.json", lambda c: c["group_elements"].update(
            g={"type": "matrix", "rows": [[10**400, 0, 0], [0, 1, 0], [0, 0, 1]]})),
        # the u(2) <-> C^2 map is a library argument, not a config key
        ("charges", "u2_charges.json", lambda c: c.update(u2_c2_map="garbage")),
        ("charges", "u2_charges.json", lambda c: c.update(u2_c2_map=np.eye(4).tolist())),
    ]
    for n, (command, config, edit) in enumerate(wrong_types):
        out = tmp_path / f"wrong{n}.out.json"
        assert main([command, variant(config, f"wrong{n}.json", edit), "--out", str(out)]) == 2, n
        assert not out.exists()

    assert main(["check", str(CONFIG_DIR / "so3_check.json"), "--seed", "-1"]) == 2
    for tol in ("nan", "-1", "inf"):
        out = tmp_path / f"tol{tol}.out.json"
        assert main(["check", str(CONFIG_DIR / "so3_check.json"), "--tol", tol, "--out", str(out)]) == 2
        assert not out.exists()

    # spacings whose star factors differ by 1e340 overflow the solve: exit 2
    # with the error line alone, no numpy warning before it
    capsys.readouterr()
    extreme = variant("solve_so3.json", "extreme.json", lambda c: c["mesh"].update(spacing=[1e-170, 1, 1]))
    out = tmp_path / "extreme.out.json"
    assert main(["solve", extreme, "--out", str(out)]) == 2
    assert not out.exists()
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: linear solve did not reach tolerance"), err

    capsys.readouterr()  # errors go to stderr, nothing on stdout
    out = tmp_path / "never.json"
    assert main(["check", str(tmp_path / "nope.json"), "--out", str(out)]) == 2
    assert not out.exists()  # no partial report on exit 2


def test_finite_field_whose_pairing_overflows_runs_quietly(tmp_path, capsys):
    # finite inputs whose inner product overflows: the action is Infinity,
    # as eom_residual_norm already may be, and no numpy warning leaks (a
    # leaked RuntimeWarning fails the test)
    def variant(config, edit):
        cfg = json.loads((CONFIG_DIR / config).read_text())
        edit(cfg)
        return write_config(tmp_path, cfg, "overflow.json")

    cases = [
        ("solve", "solve_so3.json", 0, lambda c: c["field"].update(
            init={"init": "explicit", "cells": [{"base": [0, 0, 0], "axes": [0], "value": [1e308, 1e308, 0]}]})),
        ("solve", "solve_so3.json", 0, lambda c: c["field"].update(
            init={"init": "random_gaussian", "seed": 3, "stddev": 1e300})),
        ("check", "so3_check.json", 1, lambda c: c["field"]["init"].update(stddev=1e200)),
    ]
    for n, (command, config, code, edit) in enumerate(cases):
        out = tmp_path / f"overflow{n}.out.json"
        capsys.readouterr()
        assert main([command, variant(config, edit), "--out", str(out)]) == code, n
        assert capsys.readouterr().err == "", n
        report = json.loads(out.read_text())
        if command == "solve":
            assert report["results"]["action"] == float("inf"), n


def test_spacing_without_headroom_fails_checks_with_infinity_and_nan(tmp_path, capsys):
    # every cell volume and star factor of [1e308, 1, 1] is finite, so the
    # config is accepted; a field value above ~1.8 times a star factor of
    # 1e308 then overflows, and exactly the checks it enters fail (exit 1),
    # with no numpy warning
    cfg = json.loads((CONFIG_DIR / "so3_check.json").read_text())
    cfg["mesh"]["spacing"] = [1e308, 1, 1]
    out = tmp_path / "report.json"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["check", write_config(tmp_path, cfg), "--out", str(out)]) == 1
    assert not caught and capsys.readouterr().err == ""
    failed = {c["name"]: c["lhs"] for c in json.loads(out.read_text())["checks"] if not c["passed"]}
    assert failed.keys() == {"star_double_identity", "action_global_invariance", "trivial_charge_flux_identity"}
    assert failed["star_double_identity"] == math.inf
    assert math.isnan(failed["action_global_invariance"])
    assert math.isnan(failed["trivial_charge_flux_identity"])


def test_mesh_that_does_not_fit_in_memory_exits_two(tmp_path):
    # 700^3 passes the size rule, but a field on its 1.03e9 edges takes
    # 15-23 GiB.  With the address space capped at 3 GB the first such
    # allocation fails at once with a MemoryError, which exits 2.  Never run
    # this shape without the cap: it would try to fill the machine.
    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (3 << 30, 3 << 30))

    src = str(Path(formlab.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    env.update({var: "1" for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")})
    for command, config in (("check", "so3_check.json"), ("solve", "solve_so3.json")):
        cfg = json.loads((CONFIG_DIR / config).read_text())
        cfg["mesh"]["shape"] = [700, 700, 700]
        path = write_config(tmp_path, cfg)
        out = tmp_path / "report.json"
        run = subprocess.run(
            [sys.executable, "-m", "formlab", command, path, "--out", str(out)],
            env=env, capture_output=True, text=True, preexec_fn=cap,
        )
        assert run.returncode == 2, (command, run.stderr)
        assert run.stdout == "" and not out.exists()
        err = run.stderr.splitlines()
        assert len(err) == 1 and err[0].startswith("error: not enough memory"), err


NAN = float("nan")


@pytest.mark.parametrize(
    "config,name,spec",
    [
        ("so3_check.json", "g", {"type": "matrix", "rows": [[1, 0, 0], [0, 1, 0], [0, 0, NAN]]}),
        ("so3_check.json", "g", {"type": "matrix", "rows": [[2, 0, 0], [0, 1, 0], [0, 0, 0.5]]}),
        ("so3_check.json", "g", {"type": "exp", "coeffs": [1e300, 0, 0]}),
        ("u2_check.json", "v", {"type": "matrix", "rows": [[[0, 1], [0, 0]], [[0, 0], [NAN, 0]]]}),
        ("u2_check.json", "v", {"type": "matrix", "rows": [[2, 0], [0, 0.5]]}),
        ("u2_check.json", "v", {"type": "matrix", "rows": [[1e200, 0], [0, 1]]}),
    ],
)
def test_bad_group_element_exits_two_without_warnings(tmp_path, capsys, config, name, spec):
    cfg = json.loads((CONFIG_DIR / config).read_text())
    cfg["group_elements"][name] = spec
    out = tmp_path / "report.json"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["compose", write_config(tmp_path, cfg), "--out", str(out)]) == 2
    assert not caught
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.startswith(f"error: bad group element {name!r}") and "Warning" not in err


@pytest.mark.parametrize(
    "command,config",
    [
        ("compose", "so3_check.json"),
        ("check", "so3_check.json"),
        ("check", "u2_check.json"),
        ("defect", "so3_defect.json"),
        ("charges", "u2_charges.json"),
        ("solve", "solve_so3.json"),
    ],
)
def test_command_starts_without_scipy(tmp_path, command, config):
    # scipy costs about 0.3 s per start-up and no command needs it: incidence
    # and the boundary-squared check run on numpy face tables, d and the
    # solver on shift maps; nor does a command load the checks or the DSL
    # unless it runs them, or numpy.fft unless it solves; dataclasses, whose
    # classes exec-compile their methods as they import, stays unloaded
    script = (
        "import json, sys\n"
        "import formlab.cli\n"
        "argv = [sys.argv[1], sys.argv[2], '--out', sys.argv[3]]\n"
        "assert formlab.cli.main(argv) == 0\n"
        "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] in ('scipy', 'formlab', 'dataclasses')\n"
        "                        or m.startswith('numpy.fft'))))\n"
    )
    src = str(Path(formlab.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = tmp_path / "report.json"
    run = subprocess.run(
        [sys.executable, "-c", script, command, str(CONFIG_DIR / config), str(out)],
        env=env, capture_output=True, text=True, check=True,
    )
    loaded = set(json.loads(run.stdout))
    assert not {m for m in loaded if m.split(".")[0] == "scipy"}
    assert "dataclasses" not in loaded
    unused = {"check": set(), "compose": {"formlab.checks"}}.get(command, {"formlab.checks", "formlab.dsl"})
    assert not loaded & unused
    # only the torus solve transforms; numpy loads numpy.fft lazily from 2.0 on
    if command != "solve" and int(np.__version__.split(".")[0]) >= 2:
        assert not {m for m in loaded if m.startswith("numpy.fft")}
    assert json.loads(out.read_text())  # a report was written


def _child_env():
    """The environment of a child that imports this checkout's formlab."""
    src = str(Path(formlab.__file__).resolve().parent.parent)
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))


def _compose_mismatch(tmp_path):
    """A config whose compose expression fails to typecheck: exit 1."""
    cfg = base_config(
        group_elements={"g": {"type": "exp", "coeffs": [1.0, 0.0, 0.0]}}, compose="g[0] . g[0]"
    )
    return write_config(tmp_path, cfg, "mismatch.json")


@pytest.mark.parametrize(
    "command,config",
    [
        ("check", "so3_check.json"),
        ("compose", "u2_check.json"),
        ("defect", "so3_defect.json"),
        ("charges", "u2_charges.json"),
        ("solve", "solve_so3.json"),
        ("compose", None),  # exit 1
    ],
)
def test_python_m_formlab_matches_main_in_process(tmp_path, capsys, command, config):
    # the process ends with os._exit once main returns: the exit code, the
    # report and both streams must be what main gives in-process
    path = str(CONFIG_DIR / config) if config else _compose_mismatch(tmp_path)
    for out in (tmp_path / "report.json", None):
        argv = [command, path] + (["--out", str(out)] if out else [])
        code = main(argv)
        expected = capsys.readouterr()
        report = out.read_bytes() if out else None
        run = subprocess.run(
            [sys.executable, "-m", "formlab", *argv], env=_child_env(), capture_output=True, text=True
        )
        assert (run.returncode, run.stdout, run.stderr) == (code, expected.out, expected.err)
        assert code == (1 if config is None else 0)
        if out:
            assert out.read_bytes() == report
        else:
            assert json.loads(run.stdout)


# the formlab command line, run by run() with an atexit handler registered
# first that prints to stdout
RUN_WITH_HANDLER = (
    "import atexit, sys\n"
    "import formlab.cli\n"
    "atexit.register(print, 'handler ran')\n"
    "sys.argv = ['formlab'] + sys.argv[1:]\n"
    "formlab.cli.run()\n"
)


def test_an_atexit_handler_registered_before_run_still_runs(tmp_path):
    # run() ends with os._exit, which would skip the handler; it runs the
    # handlers itself and flushes stdout after them
    config = str(CONFIG_DIR / "so3_check.json")
    run = subprocess.run(
        [sys.executable, "-c", RUN_WITH_HANDLER, "compose", config],
        env=_child_env(), capture_output=True, text=True,
    )
    assert run.returncode == 0 and run.stderr == ""
    assert run.stdout.endswith("}\nhandler ran\n")
    assert json.loads(run.stdout.removesuffix("handler ran\n"))["ok"] is True


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_a_report_that_cannot_reach_stdout_exits_two(tmp_path):
    config = str(CONFIG_DIR / "so3_check.json")
    runs = [
        [sys.executable, "-m", "formlab", "compose", config],
        [sys.executable, "-m", "formlab", "check", config],
        # the handler writes after main returned 0: run()'s own flush fails
        [sys.executable, "-c", RUN_WITH_HANDLER, "compose", config, "--out", str(tmp_path / "report.json")],
    ]
    # with a buffered stdout: unbuffered, the handler's own print fails
    env = {key: value for key, value in _child_env().items() if key != "PYTHONUNBUFFERED"}
    for argv in runs:
        with open("/dev/full", "w") as full:
            run = subprocess.run(argv, env=env, stdout=full, stderr=subprocess.PIPE, text=True)
        err = run.stderr.splitlines()
        assert run.returncode == 2, (argv, run.stderr)
        assert len(err) == 1 and err[0].startswith("error: cannot write report to stdout: "), err


def test_a_run_with_a_closed_standard_stream_writes_its_report(tmp_path):
    # Python sets sys.stdout or sys.stderr to None when the descriptor was
    # closed at start-up; run() flushes only the streams it has
    config = str(CONFIG_DIR / "so3_check.json")
    for fd in (1, 2):
        out = tmp_path / f"report_{fd}.json"
        run = subprocess.run(
            [sys.executable, "-m", "formlab", "compose", config, "--out", str(out)],
            env=_child_env(), capture_output=True, text=True, preexec_fn=lambda fd=fd: os.close(fd),
        )
        assert run.returncode == 0, run.stderr
        assert json.loads(out.read_text())["ok"] is True


def test_defect_run_leaves_numpy_ma_unloaded(tmp_path):
    # no command needs numpy.ma, a measurable share of start-up; np.isin on
    # widely spread cells, such as this plane filling's, imported it
    # through np.unique
    cfg = json.loads((CONFIG_DIR / "so3_defect.json").read_text())
    cfg["mesh"]["shape"] = [12, 12, 12]
    cfg["defects"][1]["move"]["filling"] = {"kind": "plane", "normal": 1, "offset": 3}
    script = (
        "import sys\n"
        "import formlab.cli\n"
        "assert formlab.cli.main(['defect', sys.argv[1], '--out', sys.argv[2]]) == 0\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    src = str(Path(formlab.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    run = subprocess.run(
        [sys.executable, "-c", script, write_config(tmp_path, cfg), str(tmp_path / "report.json")],
        env=env, capture_output=True, text=True, check=True,
    )
    assert run.stdout == "False\n"


def test_failed_solve_prints_only_the_error(tmp_path):
    # a one-edge source with nothing fixed is incompatible: within a few
    # steps the residual lies in the kernel of the operator, the row stops
    # and fails the residual test, and no numpy warning may reach stderr
    cfg = json.loads((CONFIG_DIR / "solve_so3.json").read_text())
    cfg["mesh"]["shape"] = [4, 4, 4]
    cfg["field"]["init"]["fixed"] = []
    cfg["field"]["init"]["source"] = {"cells": [{"base": [1, 1, 1], "axes": [0], "value": [1, 0, 0]}]}
    src = str(Path(formlab.__file__).resolve().parent.parent)
    env = dict(
        os.environ,
        PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])),
        PYTHONWARNINGS="default",
    )
    out = tmp_path / "report.json"
    run = subprocess.run(
        [sys.executable, "-m", "formlab", "solve", write_config(tmp_path, cfg), "--out", str(out)],
        env=env, capture_output=True, text=True,
    )
    assert run.returncode == 2
    assert run.stdout == ""
    assert len(run.stderr.splitlines()) == 1
    assert run.stderr.startswith("error: linear solve did not reach tolerance")
    assert not out.exists()


def test_seed_flag_overrides_config(tmp_path):
    cfg = base_config()
    cfg["field"] = {"degree": 1, "fiber": "algebra", "init": {"init": "random_gaussian", "seed": 9}}
    path = write_config(tmp_path, cfg)
    out1, out2, out3 = (tmp_path / n for n in ("a.json", "b.json", "c.json"))
    assert main(["check", path, "--out", str(out1)]) == 0
    assert main(["check", path, "--seed", "123", "--out", str(out2)]) == 0
    assert main(["check", path, "--seed", "123", "--out", str(out3)]) == 0
    assert out2.read_bytes() == out3.read_bytes()
    assert json.loads(out2.read_text())["provenance"]["seed"] == 123
    assert out1.read_bytes() != out2.read_bytes()


def test_field_csv_roundtrip_bit_exact(tmp_path, rng):
    cx = CubicalComplex([2, 2])
    fiber = algebra_fiber(so3())
    zero = Cochain.zeros(cx, 1, fiber)
    path = tmp_path / "zero.csv"
    emit_field_csv(zero, path)
    rows = path.read_text().splitlines()
    assert rows[0] == "degree,base0,base1,axes,component_index,re,im"
    assert len(rows) == 1 + 8 * 3  # 8 edges per component
    assert load_field_csv(cx, 1, fiber, path).values.tolist() == zero.values.tolist()

    psi = Cochain.random_gaussian(cx, 1, fiber, rng)
    emit_field_csv(psi, path)
    again = load_field_csv(cx, 1, fiber, path)
    assert np.array_equal(again.values, psi.values)

    cpx = Cochain.random_gaussian(cx, 1, COMPLEX_PAIR, rng)
    emit_field_csv(cpx, path)
    assert np.array_equal(load_field_csv(cx, 1, COMPLEX_PAIR, path).values, cpx.values)

    # infinite imaginary parts and signed zeros survive bit for bit: re + 1j*im
    # would give nan real parts and drop the sign of a -0.0 real part
    special = cpx.values.copy()
    special[:, 0] = [complex(0.0, np.inf), complex(-0.0, -np.inf), complex(-0.0, 0.0), complex(1.5, -0.0),
                     complex(np.inf, np.inf), complex(-np.inf, 2.0), complex(np.nan, -np.inf), complex(-0.0, 3.0)]
    emit_field_csv(cpx.with_values(special), path)
    again = load_field_csv(cx, 1, COMPLEX_PAIR, path).values
    assert np.array_equal(again.view(np.int64), special.view(np.int64))


def _per_row_csv(psi):
    """The field CSV by the row-by-row rule: one f-string per (cell, component)."""
    cx = psi.complex
    header = ["degree"] + [f"base{i}" for i in range(cx.d)] + ["axes", "component_index", "re", "im"]
    lines = [",".join(header) + "\r\n"]
    offset = 0
    for axes in cx.axis_subsets(psi.degree):
        bases = cx.block_bases(psi.degree, axes)
        for j, base in enumerate(bases.T.tolist()):
            prefix = f"{psi.degree},{','.join(map(str, base))},{''.join(map(str, axes))},"
            for comp, v in enumerate(psi.values[offset + j].tolist()):
                im = f"{v.imag:.17g}" if psi.fiber.is_complex else "0"
                lines.append(f"{prefix}{comp},{v.real:.17g},{im}\r\n")
        offset += bases.shape[1]
    return "".join(lines).encode()


_SPECIAL_VALUES = [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324, 1e-310, 1e300, -1.5]


def _sprinkle_special(psi, rng):
    """psi with about half of its real and imaginary parts set to special values."""
    values = psi.values.copy()
    parts = (values.real, values.imag) if psi.fiber.is_complex else (values,)
    for part in parts:
        mask = rng.random(part.shape) < 0.5
        part[mask] = rng.choice(_SPECIAL_VALUES, int(mask.sum()))
    return psi.with_values(values)


@pytest.mark.parametrize("topology", ["torus", "box"])
def test_field_csv_bytes_match_per_row_rule(tmp_path, rng, topology):
    path = tmp_path / "field.csv"
    for shape in ([3], [3, 2], [2, 3, 2]):
        cx = CubicalComplex(shape, topology=topology)
        for degree in range(cx.d + 1):
            for fiber in (REAL_SCALAR, COMPLEX_PAIR, algebra_fiber(so3())):
                psi = _sprinkle_special(Cochain.random_gaussian(cx, degree, fiber, rng), rng)
                emit_field_csv(psi, path)
                assert path.read_bytes() == _per_row_csv(psi), (shape, degree, fiber.kind)


def test_field_csv_bytes_across_chunks(tmp_path, rng):
    # 17^3 = 4913 cells per block, more than one writer chunk of 4096 cells
    cx = CubicalComplex([17, 17, 17])
    assert cx.cell_count(1) // 3 > fieldio._CHUNK_CELLS
    path = tmp_path / "field.csv"
    for fiber in (algebra_fiber(so3()), COMPLEX_PAIR):
        psi = _sprinkle_special(Cochain.random_gaussian(cx, 1, fiber, rng), rng)
        emit_field_csv(psi, path)
        assert path.read_bytes() == _per_row_csv(psi), fiber.kind


def _set_column(col, value, row=1):
    def edit(rows):
        fields = rows[row].split(",")
        fields[col] = value
        rows[row] = ",".join(fields)
    return edit


def _append_row(col, value):
    def edit(rows):
        fields = rows[1].split(",")
        fields[col] = value
        rows.append(",".join(fields))
    return edit


# each edit keeps every (cell, component) covered unless coverage is the point,
# so the rejection comes from the rule named in the case
_REJECTED_CSV_EDITS = {
    "short_row": lambda rows: rows.append(rows[1].rsplit(",", 1)[0]),
    "degree_mismatch": lambda rows: rows.append("2,0,0,0,01,0,0,0"),
    "axes_3": _append_row(4, "3"),
    "axes_01_on_degree_1": _append_row(4, "01"),
    "component_3": _append_row(5, "3"),
    "imaginary_on_real_fiber": _set_column(7, "1"),
    "missing_row": lambda rows: rows.pop(5),
    "header_only": lambda rows: rows.__delitem__(slice(1, None)),
    "base_1.0": _append_row(2, "1.0"),
    "blank_line": lambda rows: rows.insert(3, ""),
    "trailing_blank_line": lambda rows: rows.append(""),
    "comment_line": lambda rows: rows.insert(3, "# a comment"),
    # bases outside the mesh: a torus does not wrap them, since a torus of
    # another size writes such rows
    "base_9": _append_row(1, "9"),
    "base_-1": _append_row(1, "-1"),
}


@pytest.mark.parametrize(
    "topology,case",
    [(t, c) for t in ("torus", "box") for c in sorted(_REJECTED_CSV_EDITS)],
)
def test_field_csv_rejects_malformed_rows(tmp_path, topology, case):
    edit = _REJECTED_CSV_EDITS[case]
    cx = CubicalComplex([3, 3, 3], topology=topology)
    fiber = algebra_fiber(so3())
    path = tmp_path / "field.csv"
    emit_field_csv(Cochain.random_gaussian(cx, 1, fiber, np.random.default_rng(4)), path)
    rows = path.read_text().splitlines()
    edit(rows)
    path.write_text("\n".join(rows) + "\n")
    with pytest.raises(FormlabError):
        load_field_csv(cx, 1, fiber, path)


@pytest.mark.parametrize("topology", ["torus", "box"])
def test_field_csv_accepted_variants(tmp_path, topology):
    cx = CubicalComplex([3, 3, 3], topology=topology)
    fiber = algebra_fiber(so3())
    psi = Cochain.random_gaussian(cx, 1, fiber, np.random.default_rng(5))
    path = tmp_path / "field.csv"
    emit_field_csv(psi, path)
    original = path.read_text().splitlines()

    def load(edit):
        rows = list(original)
        edit(rows)
        path.write_text("\n".join(rows) + "\n")
        return load_field_csv(cx, 1, fiber, path).values

    def dup_before(rows):
        rows.insert(1, rows[4].rsplit(",", 2)[0] + ",7.5,0")

    def dup_after(rows):
        rows.append(rows[4].rsplit(",", 2)[0] + ",7.5,0")

    def quoted(rows):
        fields = rows[2].split(",")
        fields[4] = f'"{fields[4]}"'
        fields[6] = f'"{fields[6]}"'
        rows[2] = ",".join(fields)

    # a duplicated row is accepted and the last one wins
    assert np.array_equal(load(dup_before), psi.values)
    expected = psi.values.copy()
    expected[1, 0] = 7.5  # line 4 holds cell 1, component 0
    assert np.array_equal(load(dup_after), expected)
    assert np.array_equal(load(quoted), psi.values)
    expected = psi.values.copy()
    expected[0, 1] = np.nan
    assert np.array_equal(load(_set_column(6, "nan", row=2)), expected, equal_nan=True)


def test_solver_dump_reload_preserves_residual(tmp_path, rng):
    cx = CubicalComplex([4, 4, 4])
    fiber = algebra_fiber(so3())
    from formlab import d as coboundary

    closed = coboundary(Cochain.random_gaussian(cx, 0, fiber, rng))
    picks = rng.choice(cx.cell_count(1), size=6, replace=False)
    psi = solve_free(cx, fiber, 1, fixed={int(i): closed.values[i] for i in picks})
    path = tmp_path / "solved.csv"
    emit_field_csv(psi, path)
    again = load_field_csv(cx, 1, fiber, path)
    assert abs(max_norm(eom_residual(again)) - max_norm(eom_residual(psi))) <= 1e-15


def test_explicit_csv_init_roundtrip(tmp_path):
    cx = CubicalComplex([2, 2])
    psi = Cochain(cx, 0, REAL_SCALAR, np.arange(4, dtype=float))
    csv_path = tmp_path / "f.csv"
    emit_field_csv(psi, csv_path)
    cfg = {
        "mesh": {"shape": [2, 2]},
        "algebra": "so3",
        "field": {"degree": 0, "fiber": "real_scalar", "init": {"init": "explicit", "csv": "f.csv"}},
    }
    from formlab.config import build_field, load_scenario

    scenario = load_scenario(write_config(tmp_path, cfg))
    again = build_field(scenario)
    assert np.array_equal(again.values, psi.values)
