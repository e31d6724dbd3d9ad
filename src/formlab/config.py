"""Scenario configuration loading and resolution.

A scenario is one JSON document with the keys mesh, algebra, field,
group_elements, charges, defects, compose, checks, tolerances and seed.
Every cross-reference is resolved here; malformed input raises ConfigError
with a message naming the offending key.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import algebra as alg
from .calculus import (
    COMPLEX_PAIR, DEFAULT_SOLVER_TOL, REAL_SCALAR, Cochain, FiberSpec, algebra_fiber, solve_free,
)
from .errors import ConfigError, DomainError, FormlabError, parse_number
from .graded import GroupoidRep
from .mesh import Chain, CubicalComplex, named_cycle

DEFAULT_TOLERANCES = {
    "check": 1e-12,
    "exact": 1e-13,
    "star": 1e-14,
    "solver": DEFAULT_SOLVER_TOL,
}


@dataclass
class Scenario:
    complex: CubicalComplex | None
    algebra: alg.LieAlgebra
    fiber: FiberSpec
    field_degree: int
    field_init: dict
    group_elements: dict
    charges: list
    defects: list
    compose_source: str | None
    checks: list | None
    tolerances: dict
    seed: int
    base_dir: Path = field(default_factory=Path)


def load_scenario(path) -> Scenario:
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        cfg = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"malformed JSON in {path}: {exc}") from exc
    return scenario_from_dict(cfg, base_dir=path.parent)


def scenario_from_dict(cfg: dict, base_dir=Path(".")) -> Scenario:
    if not isinstance(cfg, dict):
        raise ConfigError("the config root must be a JSON object")
    known = {
        "mesh", "algebra", "field", "group_elements", "charges", "defects",
        "compose", "checks", "tolerances", "seed",
    }
    unknown = set(cfg) - known
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")

    complex_ = _build_mesh(cfg.get("mesh")) if "mesh" in cfg else None
    algebra_name = cfg.get("algebra", "so3")
    if not isinstance(algebra_name, str):
        raise ConfigError(f"'algebra' must be a name, got {algebra_name!r}")
    algebra = alg.algebra_by_name(algebra_name)

    field_cfg = cfg.get("field", {})
    if not isinstance(field_cfg, dict):
        raise ConfigError("'field' must be an object")
    field_degree = parse_number(int, field_cfg.get("degree", 1), "'field.degree'")
    fiber = _build_fiber(field_cfg.get("fiber", "algebra"), algebra)
    if fiber.kind == "complex_pair" and algebra.name != "u2":
        raise ConfigError("the complex pair fiber needs the u2 scenario algebra")
    field_init = field_cfg.get("init", {"init": "zero"})
    if not isinstance(field_init, dict) or "init" not in field_init:
        raise ConfigError("'field.init' must be an object with an 'init' key")

    tolerances = dict(DEFAULT_TOLERANCES)
    for key, value in _container(cfg, "tolerances", dict).items():
        if key not in tolerances:
            raise ConfigError(f"unknown tolerance {key!r}")
        tolerances[key] = parse_tolerance(value, f"tolerance {key!r}")

    group_elements = {}
    for name, spec in _container(cfg, "group_elements", dict).items():
        group_elements[name] = _build_group_element(name, spec, algebra)

    checks = cfg.get("checks")
    if not (checks is None or checks == "all" or isinstance(checks, list)):
        raise ConfigError(f"'checks' must be a list of check names or \"all\", got {checks!r}")
    compose_source = cfg.get("compose")
    if not (compose_source is None or isinstance(compose_source, str)):
        raise ConfigError(f"'compose' must be a string, got {compose_source!r}")

    scenario = Scenario(
        complex=complex_,
        algebra=algebra,
        fiber=fiber,
        field_degree=field_degree,
        field_init=field_init,
        group_elements=group_elements,
        charges=list(_container(cfg, "charges", list)),
        defects=list(_container(cfg, "defects", list)),
        compose_source=compose_source,
        checks=checks,
        tolerances=tolerances,
        seed=parse_seed(cfg.get("seed", 0), "'seed'"),
        base_dir=Path(base_dir),
    )
    _validate_requests(scenario)
    return scenario


def _container(cfg: dict, key: str, kind):
    """cfg[key] when it is a JSON object (kind dict) or array (kind list);
    an empty one when the key is absent or null."""
    value = cfg.get(key)
    if value is None:
        return kind()
    if not isinstance(value, kind):
        noun = "an object" if kind is dict else "a list"
        raise ConfigError(f"{key!r} must be {noun}, got {value!r}")
    return value


def parse_seed(value, what: str) -> int:
    """A random seed: a non-negative integer, as numpy's generators take."""
    seed = parse_number(int, value, what)
    if seed < 0:
        raise ConfigError(f"{what} must be a non-negative integer, got {value!r}")
    return seed


def parse_tolerance(value, what: str) -> float:
    """A tolerance: a finite positive number (NaN is not positive).  An
    infinite one would pass every check it bounds."""
    tol = parse_number(float, value, what)
    if not tol > 0:
        raise ConfigError(f"{what} must be positive")
    if tol == math.inf:
        raise ConfigError(f"{what} must be finite")
    return tol


def _build_mesh(spec) -> CubicalComplex:
    if not isinstance(spec, dict) or not isinstance(spec.get("shape"), list):
        raise ConfigError("'mesh' must be an object with a 'shape' list")
    return CubicalComplex(spec["shape"], spec.get("spacing"), spec.get("topology", "torus"))


def _build_fiber(name, algebra: alg.LieAlgebra) -> FiberSpec:
    if name == "algebra":
        return algebra_fiber(algebra)
    if name == "complex_pair":
        return COMPLEX_PAIR
    if name == "real_scalar":
        return REAL_SCALAR
    raise ConfigError(f"unknown fiber {name!r}")


def _build_group_element(name, spec, algebra: alg.LieAlgebra) -> alg.GroupElement:
    if not isinstance(spec, dict) or "type" not in spec:
        raise ConfigError(f"group element {name!r} must be an object with a 'type'")
    try:
        if spec["type"] == "exp":
            source = alg.algebra_by_name(spec.get("algebra", algebra.name))
            if source is not algebra:
                raise ConfigError(
                    f"group element {name!r} uses algebra {source.name!r} but the "
                    f"scenario algebra is {algebra.name!r}"
                )
            coeffs = _numbers(spec["coeffs"], "'coeffs'")
            # coefficients near the float limit overflow the algebra matrix,
            # whose exponential is then rejected as non-finite
            with np.errstate(over="ignore", invalid="ignore"):
                x = source.element(coeffs)
            return alg.exponential(x)
        if spec["type"] == "matrix":
            rows = spec["rows"]
            if not isinstance(rows, list) or not all(isinstance(row, list) for row in rows):
                raise ConfigError(f"'rows' must be a list of lists, got {rows!r}")
            matrix = np.array([[_complex_entry(v, "matrix entry") for v in row] for row in rows])
            return alg.GroupElement(algebra.group, matrix)
    except FormlabError as exc:
        raise ConfigError(f"bad group element {name!r}: {exc}") from exc
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad group element {name!r}: {exc}") from exc
    raise ConfigError(f"group element {name!r}: unknown type {spec['type']!r}")


def _numbers(raw, what: str) -> np.ndarray:
    """A JSON list of numbers as a float64 array."""
    if not isinstance(raw, list):
        raise ConfigError(f"{what} must be a list of numbers, got {raw!r}")
    return np.array([parse_number(float, v, what) for v in raw], dtype=np.float64)


def _complex_entry(value, what: str) -> complex:
    """A number, or an [re, im] pair of numbers, as a complex number."""
    if isinstance(value, list) and len(value) == 2:
        return complex(parse_number(float, value[0], what), parse_number(float, value[1], what))
    return complex(parse_number(float, value, what))


def parse_fiber_value(fiber: FiberSpec, raw) -> np.ndarray:
    """Parse one fiber value from its JSON form."""
    what = "fiber value"
    if fiber.kind == "real_scalar":
        if isinstance(raw, list) and len(raw) == 1:
            (raw,) = raw
        return np.array([parse_number(float, raw, what)])
    if fiber.kind == "complex_pair":
        if not isinstance(raw, list) or len(raw) != 2:
            raise ConfigError(f"complex pair values need two entries, got {raw!r}")
        return np.array([_complex_entry(v, what) for v in raw])
    vals = _numbers(raw, what)
    if vals.shape != (fiber.components,):
        raise ConfigError(
            f"algebra values need {fiber.components} coefficients, got {raw!r}"
        )
    return vals


def resolve_chain(scenario: Scenario, spec) -> Chain:
    if scenario.complex is None:
        raise ConfigError("this command needs a 'mesh' entry in the config")
    try:
        chain = named_cycle(scenario.complex, spec)
    except KeyError as exc:
        raise ConfigError(f"bad chain spec: missing key {exc}") from exc
    except (DomainError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad chain spec: {exc}") from exc
    # integer boundaries run in int64 and integrals scale float values, so a
    # coefficient must be an integer that a float holds exactly
    big = chain.coefs[np.abs(chain.coefs) > 2**53]
    if big.size:
        raise ConfigError(f"bad chain spec: coefficient {big[0]} exceeds 2**53 in magnitude")
    return chain


def _validate_requests(scenario: Scenario) -> None:
    for i, req in enumerate(scenario.charges):
        if not isinstance(req, dict) or req.get("kind") not in ("eom", "trivial"):
            raise ConfigError(f"charge request {i}: 'kind' must be 'eom' or 'trivial'")
        if "support" not in req:
            raise ConfigError(f"charge request {i}: missing 'support'")
    for i, req in enumerate(scenario.defects):
        for key in ("g", "degree", "support", "move", "charged"):
            if not isinstance(req, dict) or key not in req:
                raise ConfigError(f"defect request {i}: missing {key!r}")
        if not isinstance(req["g"], str) or req["g"] not in scenario.group_elements:
            raise ConfigError(f"defect request {i}: unknown group element {req['g']!r}")
        if not isinstance(req["move"], dict) or "filling" not in req["move"]:
            raise ConfigError(f"defect request {i}: 'move' needs a 'filling'")
        charged = req["charged"]
        if not isinstance(charged, dict) or "support" not in charged:
            raise ConfigError(f"defect request {i}: 'charged' needs a 'support'")
        # parsed once here; the charged degree defaults to the defect's
        req["degree"] = parse_number(int, req["degree"], f"defect request {i}: 'degree'")
        charged["degree"] = parse_number(
            int, charged.get("degree", req["degree"]), f"defect request {i}: 'charged.degree'"
        )


def representation_for(scenario: Scenario) -> GroupoidRep:
    fiber = scenario.fiber
    if fiber.kind == "real_scalar":
        fiber = algebra_fiber(scenario.algebra)
    return GroupoidRep(fiber)


def build_field(scenario: Scenario) -> Cochain:
    """Build the scenario's field cochain from its init spec."""
    if scenario.complex is None:
        raise ConfigError("this command needs a 'mesh' entry in the config")
    cx = scenario.complex
    degree = scenario.field_degree
    fiber = scenario.fiber
    init = scenario.field_init
    kind = init["init"]
    if kind == "zero":
        return Cochain.zeros(cx, degree, fiber)
    if kind == "random_gaussian":
        seed = parse_seed(init.get("seed", scenario.seed), "'field.init.seed'")
        stddev = parse_number(float, init.get("stddev", 1.0), "'field.init.stddev'")
        if not 0.0 <= stddev < math.inf:  # nan fails too
            raise ConfigError(f"'field.init.stddev' must be a finite number >= 0, got {stddev!r}")
        return Cochain.random_gaussian(cx, degree, fiber, np.random.default_rng(seed), stddev)
    if kind == "explicit":
        if "csv" in init:
            if not isinstance(init["csv"], str):
                raise ConfigError(f"'field.init.csv' must be a file name, got {init['csv']!r}")
            from .fieldio import load_field_csv

            return load_field_csv(cx, degree, fiber, scenario.base_dir / init["csv"])
        return _cells_cochain(cx, degree, fiber, init.get("cells", []), "'cells'")
    if kind == "solve":
        fixed = dict(_cell_values(cx, degree, fiber, init.get("fixed", []), "'fixed'"))
        source = None
        if init.get("source") is not None:
            src = init["source"]
            if not isinstance(src, dict) or "cells" not in src:
                raise ConfigError("solve source must be an object with a 'cells' list")
            source = _cells_cochain(cx, degree, fiber, src["cells"], "source 'cells'")
        return solve_free(
            cx, fiber, degree, fixed=fixed, source=source,
            tol=scenario.tolerances["solver"],
        )
    raise ConfigError(f"unknown field init {kind!r}")


def _cells_cochain(cx: CubicalComplex, degree: int, fiber: FiberSpec, items, what: str) -> Cochain:
    """The cochain of a cells list: each item's value on its cell, zero elsewhere."""
    values = np.zeros((cx.cell_count(degree), fiber.components), dtype=fiber.dtype)
    for idx, value in _cell_values(cx, degree, fiber, items, what):
        values[idx] = value
    return Cochain(cx, degree, fiber, values)


def _cell_values(cx: CubicalComplex, degree: int, fiber: FiberSpec, items, what: str):
    """(cell index, fiber value) for each {"base", "axes", "value"} item of a list."""
    if not isinstance(items, list):
        raise ConfigError(f"{what} must be a list of cells, got {items!r}")
    pairs = []
    for item in items:
        if not isinstance(item, dict) or "value" not in item:
            raise ConfigError(f"{what} items must be objects with a 'value', got {item!r}")
        pairs.append((_cell_index_from_item(cx, degree, item), parse_fiber_value(fiber, item["value"])))
    return pairs


def _cell_index_from_item(cx: CubicalComplex, degree: int, item) -> int:
    try:
        base = [parse_number(int, b, "cell 'base'") for b in item["base"]]
        axes = [parse_number(int, a, "cell 'axes'") for a in item["axes"]]
        return cx.cell_index(degree, base, axes)
    except (FormlabError, KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad cell reference {item!r}: {exc}") from exc
