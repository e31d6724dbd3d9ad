"""Scenario-driven command line front end.

Commands: solve | charges | defect | compose | check.  Reports are JSON with
a fixed key order and shortest round-trip float formatting, so a fixed
config and seed produce byte-identical output.  Exit codes: 0 success with
all checks passing, 1 a check or composition failed, 2 configuration or
parse errors, a mesh too large for memory or a report that cannot be
written among them (message on stderr, no report written).
"""

from __future__ import annotations

import argparse
import atexit
import json
import os
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
)
from .defect import ChargedOperator, apply_defect, charge_eom, charge_trivial, conservation_report
from .errors import ConfigError, FormlabError
from .mesh import intersection_number


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


def _cmd_solve(scenario: Scenario, args):
    field = build_field(scenario)
    # the CSV first: the report leaves d psi, star d psi and d star d psi
    # kept on the field, and they would otherwise add to the writer's peak
    if args.field_csv:
        # each command imports only the modules it runs, to keep start-up short
        from .fieldio import emit_field_csv

        try:
            emit_field_csv(field, args.field_csv)
        except OSError as exc:
            raise ConfigError(f"cannot write field CSV {args.field_csv}: {exc}") from exc
    report = conservation_report(field)
    results = {
        "action": report.action,
        "eom_residual_norm": report.dynamical_current_norm,
        "trivial_current_norm": report.trivial_current_norm,
        "charges": report.charges,
    }
    return 0, {"command": "solve", "results": results}


def _cmd_charges(scenario: Scenario, args):
    field = build_field(scenario)
    results = []
    for name, kind, support in scenario.charge_chains:
        charge = charge_eom if kind == "eom" else charge_trivial
        results.append({"name": name, "kind": kind, "value": charge(field, support)})
    return 0, {"command": "charges", "results": results}


def _cmd_defect(scenario: Scenario, args):
    field = build_field(scenario)
    rep = representation_for(scenario)
    results = []
    for name, move, charged_support, charged_degree in scenario.defect_moves:
        charged = ChargedOperator(charged_support, field, charged_degree)
        crossings = intersection_number(charged_support, move.cobordism.filling)
        outcome = apply_defect(move.operator, charged, move, rep)
        results.append(
            {
                "name": name,
                "crossings": crossings,
                "degree_before": charged.degree,
                "degree_after": outcome.degree,
                "observable_before": charged.observable,
                "observable_after": outcome.observable,
            }
        )
    return 0, {"command": "defect", "results": results}


def _cmd_compose(scenario: Scenario, args):
    from .dsl import Diagnostic, compose_word

    if scenario.compose_source is None:
        raise ConfigError("the compose command needs a 'compose' expression in the config")
    outcome = compose_word(scenario.compose_source, scenario.group_elements)
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
        "group_element_matrix": m.g.matrix,
    }
    return 0, report


def _cmd_check(scenario: Scenario, args):
    from .checks import run_checks

    results = run_checks(scenario)
    code = 0 if all(r.passed for r in results) else 1
    rows = [
        {"name": r.name, "passed": r.passed, "lhs": r.lhs, "rhs": r.rhs, "tolerance": r.tolerance}
        for r in results
    ]
    return code, {"command": "check", "checks": rows}


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
            report["provenance"] = {
                "config_digest": scenario.config_digest, "seed": scenario.seed, "version": __version__
            }
    except FormlabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        # a mesh within CubicalComplex's size rule may still not fit this machine
        print(f"error: not enough memory for this config: {exc or 'no detail'}", file=sys.stderr)
        return 2
    text = json.dumps(to_jsonable(report), indent=2) + "\n"
    try:
        if args.out:
            Path(args.out).write_text(text)
        else:
            sys.stdout.write(text)
            sys.stdout.flush()
    except OSError as exc:
        return _unwritable(args.out or "to stdout", exc)
    return code


def _unwritable(target: str, exc: OSError) -> int:
    print(f"error: cannot write report {target}: {exc}", file=sys.stderr)
    return 2


def run() -> None:
    """The entry point of the `formlab` script and of `python -m formlab`.

    Runs main(), then the atexit handlers, flushes stdout and stderr and
    ends the process with main's exit code.  os._exit skips the interpreter's
    teardown, which frees every module and object one at a time, a large
    share of a short run.  An exception out of main, argparse's SystemExit
    among them, takes the interpreter's usual exit path.
    """
    code = main()
    atexit._run_exitfuncs()
    # a stream is None when its descriptor was closed as the process started
    if sys.stdout is not None:
        try:
            sys.stdout.flush()
        except OSError as exc:
            # an exit 2 has printed its one error line: a report that main
            # could not write is still in the buffer and fails this flush again
            if code != 2:
                code = _unwritable("to stdout", exc)
    if sys.stderr is not None:
        sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    run()
