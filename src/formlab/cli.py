"""Scenario-driven command line front end.

Commands: solve | charges | defect | compose | check.  Reports are JSON with
a fixed key order and shortest round-trip float formatting, so a fixed
config and seed produce byte-identical output.  Exit codes: 0 success with
all checks passing, 1 a check or composition failed, 2 configuration or
parse errors, a mesh too large for memory among them (message on stderr,
no report written).
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .config import (
    Scenario,
    build_field,
    load_scenario,
    parse_seed,
    parse_tolerance,
    representation_for,
    resolve_chain,
)
from .defect import (
    ChargedOperator,
    DefectMove,
    DefectOperator,
    FieldStrength,
    apply_defect,
    conservation_report,
)
from .errors import ConfigError, FormlabError
from .mesh import Cobordism, intersection_number


def to_jsonable(value):
    """Recursively convert report values to plain JSON types.

    Complex numbers become [re, im] pairs; arrays become nested lists.
    """
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, float):
        return value
    if isinstance(value, complex):
        return [value.real, value.imag]
    if isinstance(value, np.generic):
        return to_jsonable(value.item())
    if isinstance(value, np.ndarray):
        return to_jsonable(value.tolist())
    if isinstance(value, dict):
        return {str(k): to_jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [to_jsonable(v) for v in value]
    raise TypeError(f"cannot serialize {type(value).__name__}")


def _provenance(config_path: str, scenario: Scenario) -> dict:
    digest = hashlib.sha256(Path(config_path).read_bytes()).hexdigest()
    return {"config_digest": digest, "seed": scenario.seed, "version": __version__}


def _cmd_solve(scenario: Scenario, args):
    field = build_field(scenario)
    report = conservation_report(field)
    if args.field_csv:
        # each command imports only the modules it runs, to keep start-up short
        from .fieldio import emit_field_csv

        try:
            emit_field_csv(field, args.field_csv)
        except OSError as exc:
            raise ConfigError(f"cannot write field CSV {args.field_csv}: {exc}") from exc
    results = {
        "action": report.action,
        "eom_residual_norm": report.dynamical_current_norm,
        "trivial_current_norm": report.trivial_current_norm,
        "charges": {k: to_jsonable(v) for k, v in report.charges.items()},
    }
    return 0, {"command": "solve", "results": results}


def _cmd_charges(scenario: Scenario, args):
    strength = FieldStrength(build_field(scenario))
    results = []
    for i, req in enumerate(scenario.charges):
        support = resolve_chain(scenario, req["support"])
        value = strength.charge(req["kind"], support)
        results.append(
            {
                "name": req.get("name", f"charge_{i}"),
                "kind": req["kind"],
                "value": to_jsonable(value),
            }
        )
    return 0, {"command": "charges", "results": results}


def _cmd_defect(scenario: Scenario, args):
    field = build_field(scenario)
    rep = representation_for(scenario)
    results = []
    for i, req in enumerate(scenario.defects):
        g = scenario.group_elements[req["g"]]
        support = resolve_chain(scenario, req["support"])
        filling = resolve_chain(scenario, req["move"]["filling"])
        charged_support = resolve_chain(scenario, req["charged"]["support"])
        charged = ChargedOperator(charged_support, field, req["charged"]["degree"])
        defect = DefectOperator(g, req["degree"], support)
        move = DefectMove(defect, Cobordism(scenario.complex, filling, support))
        crossings = intersection_number(charged.support, filling)
        outcome = apply_defect(defect, charged, move, rep)
        results.append(
            {
                "name": req.get("name", f"defect_{i}"),
                "crossings": crossings,
                "degree_before": charged.degree,
                "degree_after": outcome.degree,
                "observable_before": to_jsonable(charged.observable),
                "observable_after": to_jsonable(outcome.observable),
            }
        )
    return 0, {"command": "defect", "results": results}


def _cmd_compose(scenario: Scenario, args):
    from .dsl import Diagnostic, compose_word

    if scenario.compose_source is None:
        raise ConfigError("the compose command needs a 'compose' expression in the config")
    rep = representation_for(scenario)
    outcome = compose_word(scenario.compose_source, scenario.group_elements, rep)
    if isinstance(outcome, Diagnostic):
        report = {
            "ok": False,
            "diagnostic": {
                "kind": outcome.kind,
                "offset": outcome.offset,
                "message": outcome.message,
            },
        }
        return 1, report
    m = outcome.morphism
    report = {
        "ok": True,
        "source_degree": m.source,
        "target_degree": m.target,
        "group_element_matrix": to_jsonable(m.g.matrix),
    }
    return 0, report


def _cmd_check(scenario: Scenario, args):
    from .checks import run_checks

    results = run_checks(scenario)
    code = 0 if all(r.passed for r in results) else 1
    return code, {"command": "check", "checks": [dataclasses.asdict(r) for r in results]}


_COMMANDS = {
    "solve": _cmd_solve,
    "charges": _cmd_charges,
    "defect": _cmd_defect,
    "compose": _cmd_compose,
    "check": _cmd_check,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="formlab", description="Run a formlab scenario config."
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("config", help="path to the scenario JSON")
        p.add_argument("--out", default=None, help="report path (default: stdout)")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--tol", type=float, default=None, help="override the check tolerance")
        if name == "solve":
            p.add_argument("--field-csv", default=None, help="dump the field as CSV")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        scenario = load_scenario(args.config)
        if args.seed is not None:
            scenario.seed = parse_seed(args.seed, "--seed")
        if args.tol is not None:
            scenario.tolerances["check"] = parse_tolerance(args.tol, "--tol")
        code, report = _COMMANDS[args.command](scenario, args)
        if args.command != "compose":
            report["provenance"] = _provenance(args.config, scenario)
    except FormlabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        # a mesh within CubicalComplex's size rule may still not fit this machine
        print(f"error: not enough memory for this config: {exc or 'no detail'}", file=sys.stderr)
        return 2
    text = json.dumps(to_jsonable(report), indent=2) + "\n"
    if args.out:
        try:
            Path(args.out).write_text(text)
        except OSError as exc:
            print(f"error: cannot write report {args.out}: {exc}", file=sys.stderr)
            return 2
    else:
        sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
