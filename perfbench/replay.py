"""Traced replay of one formlab CLI invocation, in a fresh process.

    python3 perfbench/replay.py COMMAND CONFIG --out REPORT [--field-csv CSV]

Run with `src` on PYTHONPATH.  The script calls the public functions that
`formlab COMMAND CONFIG` calls, in the same order, and writes the same
report to REPORT.  Each call into a layer is wrapped in a span from out
here: the module functions named in `_WRAPPED` are replaced, in every
formlab module that binds them, by a wrapper that opens a span, so a call
made inside the program (conservation_report calling `d`, say) nests under
its caller.  Spans stay in memory and are printed as one JSON line on
stdout when the invocation ends, together with the work counts:

    {"spans": [[name, start_s, end_s, parent_index], ...], "counts": {...}}

Span 0 is the whole invocation after the interpreter started; times are
seconds from that start.  One deliberate difference from the CLI:
`boundary_matrix(p)` is called for every degree right after the config
loads, so mesh assembly is timed apart from the lazy callers that would
otherwise trigger it.  `check` runs each named check on its own.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from contextlib import contextmanager
from pathlib import Path

T0 = time.perf_counter()


class Tracer:
    """Nested spans kept in memory: [name, start, end, parent index]."""

    def __init__(self):
        self.spans = []
        self._stack = []

    def open(self, name: str) -> None:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter() - T0, None, parent])
        self._stack.append(len(self.spans) - 1)

    def close(self) -> None:
        self.spans[self._stack.pop()][2] = time.perf_counter() - T0

    def wrap(self, fn, name: str):
        def traced(*args, **kwargs):
            self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close()

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def span(self, name: str):
        self.open(name)
        try:
            yield
        finally:
            self.close()


# (module, function name) -> span name
_WRAPPED = {
    ("mesh", "named_cycle"): "mesh.chains",
    ("mesh", "is_cycle"): "mesh.chains",
    ("mesh", "intersection_number"): "mesh.intersection",
    ("calculus", "solve_free"): "calculus.solve",
    ("calculus", "d"): "calculus.operators",
    ("calculus", "star"): "calculus.operators",
    ("calculus", "eom_residual"): "calculus.operators",
    ("calculus", "integrate"): "calculus.operators",
    ("calculus", "action"): "calculus.operators",
    ("defect", "conservation_report"): "defect.report",
    ("defect", "charge_eom"): "defect.charges",
    ("defect", "charge_trivial"): "defect.charges",
    ("defect", "apply_defect"): "defect.apply",
    ("fieldio", "emit_field_csv"): "fieldio.write",
    ("fieldio", "load_field_csv"): "fieldio.read",
    ("dsl", "compose_word"): "dsl.compose_word",
}

# (module, class name) -> span name for the validation in __post_init__
_WRAPPED_INIT = {
    ("mesh", "Cobordism"): "mesh.chains",
    ("defect", "ChargedOperator"): "defect.apply",
    ("defect", "DefectOperator"): "defect.apply",
    ("defect", "DefectMove"): "defect.apply",
}


def instrument(tracer: Tracer) -> None:
    """Route every formlab binding of the wrapped functions through spans."""
    import formlab

    modules = [m for n, m in sys.modules.items() if n == "formlab" or n.startswith("formlab.")]
    wrappers = {}
    for (module, attr), name in _WRAPPED.items():
        fn = getattr(getattr(formlab, module), attr)
        wrappers[id(fn)] = tracer.wrap(fn, name)
    for mod in modules:
        for attr, value in list(vars(mod).items()):
            if id(value) in wrappers:
                setattr(mod, attr, wrappers[id(value)])
    for (module, cls_name), name in _WRAPPED_INIT.items():
        cls = getattr(getattr(formlab, module), cls_name)
        cls.__post_init__ = tracer.wrap(cls.__post_init__, name)


def _all_checks(scenario, checks_mod) -> list:
    names = scenario.checks
    if names is None or names == "all" or names == ["all"]:
        return list(checks_mod.CHECK_NAMES)
    return [n for n in checks_mod.CHECK_NAMES if n in names]


def replay(command: str, config_path: str, out: str, field_csv, tracer: Tracer) -> dict:
    counts = {}
    with tracer.span("cli.import"):
        import formlab
        import formlab.cli as cli
    from formlab import checks, config, defect, dsl, fieldio, mesh
    from formlab.errors import ConfigError

    instrument(tracer)

    with tracer.span("config.load"):
        scenario = config.load_scenario(config_path)
    cx = scenario.complex
    if command != "compose":
        with tracer.span("mesh.assemble"):
            mats = [cx.boundary_matrix(p) for p in range(1, cx.d + 1)]
        counts["mesh.cells"] = sum(cx.cell_count(p) for p in range(cx.d + 1))
        counts["mesh.boundary_nnz"] = sum(int(m.nnz) for m in mats)

    init = scenario.field_init
    if command in ("solve", "charges", "defect"):
        field = config.build_field(scenario)
        components = field.fiber.components
        if init["init"] == "solve":
            free = cx.cell_count(field.degree) - len(init.get("fixed", []))
            counts["calculus.solve_unknowns"] = free * components * (2 if field.fiber.is_complex else 1)
        if init["init"] == "explicit" and "csv" in init:
            counts["fieldio.read_rows"] = cx.cell_count(field.degree) * components

    if command == "solve":
        rep = defect.conservation_report(field)
        if field_csv:
            fieldio.emit_field_csv(field, field_csv)
            counts["fieldio.write_bytes"] = Path(field_csv).stat().st_size
        report = {
            "command": "solve",
            "results": {
                "action": rep.action,
                "eom_residual_norm": rep.dynamical_current_norm,
                "trivial_current_norm": rep.trivial_current_norm,
                "charges": {k: cli.to_jsonable(v) for k, v in rep.charges.items()},
            },
        }
    elif command == "charges":
        results = []
        for i, req in enumerate(scenario.charges):
            support = config.resolve_chain(scenario, req["support"])
            fn = defect.charge_eom if req["kind"] == "eom" else defect.charge_trivial
            value = fn(field, support)
            results.append(
                {
                    "name": req.get("name", f"charge_{i}"),
                    "kind": req["kind"],
                    "value": cli.to_jsonable(value),
                }
            )
        report = {"command": "charges", "results": results}
    elif command == "defect":
        rep = config.representation_for(scenario)
        results = []
        sweeps = crossing_sweeps = crossing_sum = 0
        for i, req in enumerate(scenario.defects):
            g = scenario.group_elements[req["g"]]
            support = config.resolve_chain(scenario, req["support"])
            filling = config.resolve_chain(scenario, req["move"]["filling"])
            charged_support = config.resolve_chain(scenario, req["charged"]["support"])
            charged = defect.ChargedOperator(
                charged_support, field, int(req["charged"].get("degree", req["degree"]))
            )
            op = defect.DefectOperator(g, int(req["degree"]), support)
            move = defect.DefectMove(op, mesh.Cobordism(cx, filling, support))
            crossings = mesh.intersection_number(charged.support, filling)
            outcome = defect.apply_defect(op, charged, move, rep)
            sweeps += 1
            crossing_sweeps += crossings != 0
            crossing_sum += crossings
            results.append(
                {
                    "name": req.get("name", f"defect_{i}"),
                    "crossings": crossings,
                    "degree_before": charged.degree,
                    "degree_after": outcome.degree,
                    "observable_before": cli.to_jsonable(charged.observable),
                    "observable_after": cli.to_jsonable(outcome.observable),
                }
            )
        counts["defect.sweeps"] = sweeps
        counts["defect.crossing_sweeps"] = crossing_sweeps
        counts["defect.crossings"] = crossing_sum
        report = {"command": "defect", "results": results}
    elif command == "compose":
        rep = config.representation_for(scenario)
        outcome = dsl.compose_word(scenario.compose_source, scenario.group_elements, rep)
        if isinstance(outcome, dsl.Diagnostic):
            report = {
                "ok": False,
                "diagnostic": {
                    "kind": outcome.kind,
                    "offset": outcome.offset,
                    "message": outcome.message,
                },
            }
        else:
            m = outcome.morphism
            report = {
                "ok": True,
                "source_degree": m.source,
                "target_degree": m.target,
                "group_element_matrix": cli.to_jsonable(m.g.matrix),
            }
    elif command == "check":
        results = []
        for name in _all_checks(scenario, checks):
            with tracer.span(f"checks.{name}"):
                try:
                    results.extend(checks.run_checks(scenario, [name]))
                except ConfigError:
                    continue  # not applicable; the CLI's default run skips it
        report = {
            "command": "check",
            "checks": [
                {
                    "name": r.name,
                    "passed": r.passed,
                    "lhs": r.lhs,
                    "rhs": r.rhs,
                    "tolerance": r.tolerance,
                }
                for r in results
            ],
        }
    else:
        raise SystemExit(f"replay: unknown command {command!r}")

    with tracer.span("cli.report"):
        if command != "compose":
            digest = hashlib.sha256(Path(config_path).read_bytes()).hexdigest()
            report["provenance"] = {
                "config_digest": digest,
                "seed": scenario.seed,
                "version": formlab.__version__,
            }
        text = json.dumps(cli.to_jsonable(report), indent=2) + "\n"
        Path(out).write_text(text)
    return counts


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("command")
    parser.add_argument("config")
    parser.add_argument("--out", required=True)
    parser.add_argument("--field-csv", default=None)
    args = parser.parse_args(argv)
    tracer = Tracer()
    tracer.open("cli.invocation")
    counts = replay(args.command, args.config, args.out, args.field_csv, tracer)
    tracer.close()
    sys.stdout.write(json.dumps({"spans": tracer.spans, "counts": counts}) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
