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
    parsed = load_scenario(path).defects[0]
    assert (parsed["degree"], parsed["charged"]["degree"]) == (1, 1)
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


def test_solve_command_writes_field_csv(tmp_path, capsys):
    out_csv = tmp_path / "field.csv"
    code = main(
        ["solve", str(CONFIG_DIR / "solve_so3.json"), "--field-csv", str(out_csv), "--out", str(tmp_path / "r.json")]
    )
    assert code == 0
    lines = out_csv.read_text().splitlines()
    cx = CubicalComplex([6, 6, 6])
    assert len(lines) == 1 + cx.cell_count(1) * 3


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
    # unless it runs them, or numpy.fft unless it solves
    script = (
        "import json, sys\n"
        "import formlab.cli\n"
        "argv = [sys.argv[1], sys.argv[2], '--out', sys.argv[3]]\n"
        "assert formlab.cli.main(argv) == 0\n"
        "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] in ('scipy', 'formlab')\n"
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
    unused = {"check": set(), "compose": {"formlab.checks"}}.get(command, {"formlab.checks", "formlab.dsl"})
    assert not loaded & unused
    # only the torus solve transforms; numpy loads numpy.fft lazily from 2.0 on
    if command != "solve" and int(np.__version__.split(".")[0]) >= 2:
        assert not {m for m in loaded if m.startswith("numpy.fft")}
    assert json.loads(out.read_text())  # a report was written


def test_failed_solve_prints_only_the_error(tmp_path):
    # a one-edge source with nothing fixed is incompatible: the iteration
    # breaks down into nan, and no numpy warning may reach stderr
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
