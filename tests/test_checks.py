"""Check selection and the pass rule of the `check` command."""

import json
from pathlib import Path

import pytest

from formlab import GradedMorphism, checks
from formlab.checks import CHECK_NAMES, run_checks
from formlab.cli import main
from formlab.config import load_scenario

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def write_checks_config(tmp_path, names, topology="torus"):
    cfg = json.loads((CONFIG_DIR / "so3_check.json").read_text())
    cfg["mesh"]["topology"] = topology
    cfg["checks"] = names
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(cfg))
    return str(path)


def test_explicit_subset_comes_back_in_registry_order(tmp_path):
    path = write_checks_config(tmp_path, ["dsl_roundtrip", "bracket_closure", "boundary_squared_zero"])
    out = tmp_path / "report.json"
    assert main(["check", path, "--out", str(out)]) == 0
    names = [c["name"] for c in json.loads(out.read_text())["checks"]]
    assert names == ["boundary_squared_zero", "bracket_closure", "dsl_roundtrip"]


def test_explicit_check_that_does_not_apply_exits_two(tmp_path, capsys):
    # the Hodge star is only defined on a torus
    path = write_checks_config(tmp_path, ["star_double_identity"], topology="box")
    out = tmp_path / "report.json"
    assert main(["check", path, "--out", str(out)]) == 2
    assert not out.exists()
    assert "star_double_identity" in capsys.readouterr().err


def test_unknown_check_name_exits_two(tmp_path, capsys):
    path = write_checks_config(tmp_path, ["bracket_closure", "no_such_check"])
    out = tmp_path / "report.json"
    assert main(["check", path, "--out", str(out)]) == 2
    assert not out.exists()
    assert "no_such_check" in capsys.readouterr().err


def test_tiny_tol_fails_the_checks_held_to_it(tmp_path):
    out = tmp_path / "report.json"
    assert main(["check", str(CONFIG_DIR / "so3_check.json"), "--tol", "1e-300", "--out", str(out)]) == 1
    report = json.loads(out.read_text())["checks"]
    failed = [c["name"] for c in report if not c["passed"]]
    assert failed == [
        "stokes_adjointness",
        "generator_gram_identity",
        "bracket_closure",
        "adjoint_invariance",
        "charge_homology_invariance",
        "trivial_charge_flux_identity",
        "graded_composition_contract",
    ]
    assert all(c["tolerance"] == 1e-300 for c in report if not c["passed"])


@pytest.mark.parametrize("shape, degree", [([4, 5], 0), ([5, 3], 1), ([3, 4, 5], 0), ([3, 4, 2], 2)])
def test_check_runs_exactly_the_charge_checks_that_apply(tmp_path, shape, degree):
    # a p-form on a d-torus: the eom charge's move needs a (p+2)-cell, the
    # flux identity needs only the star, and the defect gating needs
    # q = d - p - 1 >= p >= 1
    cfg = json.loads((CONFIG_DIR / "so3_check.json").read_text())
    cfg["mesh"] = {"shape": shape, "topology": "torus"}
    cfg["field"]["degree"] = degree
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "report.json"
    assert main(["check", str(path), "--out", str(out)]) == 0
    names = {c["name"] for c in json.loads(out.read_text())["checks"]}
    d, q = len(shape), len(shape) - degree - 1
    applies = {
        "charge_homology_invariance": degree + 2 <= d,
        "trivial_charge_flux_identity": True,
        "defect_topological_gating": q >= degree >= 1,
    }
    assert names & applies.keys() == {name for name, ok in applies.items() if ok}


@pytest.mark.parametrize("config", sorted(p.name for p in CONFIG_DIR.glob("*.json")))
def test_every_result_obeys_the_pass_rule(config):
    results = run_checks(load_scenario(CONFIG_DIR / config))
    assert results
    assert [r.name for r in results] == [n for n in CHECK_NAMES if n in {r.name for r in results}]
    for r in results:
        assert r.rhs == 0.0
        assert r.passed == (r.lhs <= r.tolerance), r.name


def test_composing_same_degree_pairs_fails_the_contract(monkeypatch):
    def lenient(second, first):
        # compose without its degree test
        return GradedMorphism(second.g @ first.g, first.source, (first.shift + second.shift) % 2)

    monkeypatch.setattr(checks, "compose", lenient)
    scenario = load_scenario(CONFIG_DIR / "so3_check.json")
    [result] = run_checks(scenario, ["graded_composition_contract"])
    assert not result.passed
    assert result.lhs == float("inf")
