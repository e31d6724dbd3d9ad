"""Scenario configuration loading and resolution.

A scenario is one UTF-8 JSON document, read once and left as written.  Each
JSON object in it, at any depth, is read through `errors.parse_object` with
its own key set, and each JSON array through `errors.parse_list`, so a
missing or misspelled key, or a string where a list belongs, is a
ConfigError naming the key, as is every other malformed input.  Every
cross-reference, each chain spec included, is resolved here once.  A config
is checked whole as it loads, so every command rejects the same configs:
each charge and defect request and a solve init are held to the rules their
command applies (`defect.check_charge`, `defect.check_sweep`,
`calculus.check_free`, `GroupoidRep`'s fiber rule), and each defect's
operator and move are built here once.  Only check names, which `checks`
owns, and the contents of a field CSV wait for their command.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from . import algebra as alg
from .calculus import (
    COMPLEX_PAIR, DEFAULT_SOLVER_TOL, REAL_SCALAR, Cochain, FiberSpec, algebra_fiber, check_free,
    solve_free,
)
from .defect import DefectMove, DefectOperator, check_charge, check_sweep
from .errors import (
    ConfigError, DomainError, FormlabError, parse_integers, parse_list, parse_number, parse_object,
)
from .graded import GroupoidRep
from .mesh import Chain, Cobordism, CubicalComplex, named_cycle

DEFAULT_TOLERANCES = {
    "check": 1e-12,
    "exact": 1e-13,
    "star": 1e-14,
    "solver": DEFAULT_SOLVER_TOL,
}
_INIT_KEYS = {  # per kind of field init, the keys it may hold besides "init"
    "zero": (), "random_gaussian": ("seed", "stddev"), "explicit": ("cells", "csv"),
    "solve": ("fixed", "source"),
}


class Scenario(SimpleNamespace):
    """A loaded config, built by keyword with every field below, whole from
    the start: it always has its mesh, and each request is resolved into the
    entry its command reads.  It stays mutable: `load_scenario` sets
    `config_digest`, the request resolution fills `charge_chains` and
    `defect_moves`, and the CLI may override `seed` and `tolerances`."""

    complex: CubicalComplex
    algebra: alg.LieAlgebra
    fiber: FiberSpec
    field_degree: int
    field_init: dict
    group_elements: dict
    # the config's own request lists, as written
    charges: list
    defects: list
    compose_source: str | None
    checks: list | None
    tolerances: dict
    seed: int
    base_dir: Path
    config_digest: str
    # per charge (name, kind, support); per defect (name, DefectMove,
    # charged support, charged degree)
    charge_chains: list
    defect_moves: list


def load_scenario(path) -> Scenario:
    path = Path(path)
    try:
        data = path.read_bytes()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        # str, not bytes: json.loads would accept a UTF-8 BOM in bytes
        cfg = json.loads(data.decode("utf-8"))
    except (ValueError, RecursionError) as exc:
        # a decode error, a JSON syntax error, an integer past Python's digit
        # limit, or nesting past the recursion limit
        raise ConfigError(f"malformed JSON in {path}: {exc}") from exc
    scenario = scenario_from_dict(cfg, base_dir=path.parent)
    scenario.config_digest = hashlib.sha256(data).hexdigest()
    return scenario


def scenario_from_dict(cfg: dict, base_dir=Path(".")) -> Scenario:
    parse_object(cfg, "the config root", ("mesh",), (
        "algebra", "field", "group_elements", "charges", "defects", "compose", "checks", "tolerances", "seed",
    ))
    mesh = parse_object(cfg["mesh"], "'mesh'", ("shape",), ("spacing", "topology"))
    shape = parse_list(mesh["shape"], "'mesh.shape'")
    complex_ = CubicalComplex(shape, mesh.get("spacing"), mesh.get("topology", "torus"))
    algebra = alg.algebra_by_name(cfg.get("algebra", "so3"))

    field_cfg = parse_object(cfg.get("field", {}), "'field'", (), ("degree", "fiber", "init"))
    field_degree = parse_number(int, field_cfg.get("degree", 1), "'field.degree'")
    fiber = _build_fiber(field_cfg.get("fiber", "algebra"), algebra)
    if fiber.kind == "complex_pair" and algebra.name != "u2":
        raise ConfigError("the complex pair fiber needs the u2 scenario algebra")
    if not 0 <= field_degree <= complex_.d:
        raise ConfigError(f"'field.degree' must lie in 0..{complex_.d}, got {field_degree}")
    field_init = _parse_init(field_cfg.get("init", {"init": "zero"}), complex_, field_degree, fiber)

    tolerances = dict(DEFAULT_TOLERANCES)
    for key, value in parse_object(cfg.get("tolerances", {}), "'tolerances'", (), DEFAULT_TOLERANCES).items():
        tolerances[key] = parse_tolerance(value, f"tolerance {key!r}")

    group_elements = {}
    elements = _optional(cfg, "group_elements", {})
    # the keys of group_elements are names: every key is allowed
    for name, spec in parse_object(elements, "'group_elements'", (), elements).items():
        group_elements[name] = _build_group_element(name, spec, algebra)

    checks = cfg.get("checks")
    if checks not in (None, "all"):
        parse_list(checks, "'checks' (if not \"all\")")
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
        charges=list(parse_list(_optional(cfg, "charges", []), "'charges'")),
        defects=list(parse_list(_optional(cfg, "defects", []), "'defects'")),
        compose_source=compose_source,
        checks=checks,
        tolerances=tolerances,
        seed=parse_seed(cfg.get("seed", 0), "'seed'"),
        base_dir=Path(base_dir),
        config_digest="",
        charge_chains=[],
        defect_moves=[],
    )
    _resolve_requests(scenario)
    return scenario


def _optional(cfg: dict, key: str, empty):
    """cfg[key], or `empty` when the key is absent or null."""
    value = cfg.get(key)
    return empty if value is None else value


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


def _parse_init(spec, cx: CubicalComplex, degree: int, fiber: FiberSpec) -> dict:
    """A copy of the field init spec with its numbers parsed and its cell
    lists as (cell index, fiber value) pairs."""
    kind = parse_object(spec, "'field.init'", ("init",), sum(_INIT_KEYS.values(), ()))["init"]
    if not isinstance(kind, str) or kind not in _INIT_KEYS:
        raise ConfigError(f"unknown field init {kind!r}")
    init = dict(parse_object(spec, f"a {kind} 'field.init'", ("init",), _INIT_KEYS[kind]))
    if kind == "random_gaussian":
        if "seed" in init:
            init["seed"] = parse_seed(init["seed"], "'field.init.seed'")
        init["stddev"] = stddev = parse_number(float, init.get("stddev", 1.0), "'field.init.stddev'")
        if not 0.0 <= stddev < math.inf:  # nan fails too
            raise ConfigError(f"'field.init.stddev' must be a finite number >= 0, got {stddev!r}")
    if kind == "explicit" and not isinstance(init.get("csv", ""), str):
        raise ConfigError(f"'field.init.csv' must be a file name, got {init['csv']!r}")
    if kind == "explicit" and "csv" not in init:
        init["cells"] = _cell_values(cx, degree, fiber, init.get("cells", []), "'cells'")
    if kind == "solve":
        try:
            check_free(cx, degree)
        except FormlabError as exc:
            raise ConfigError(f"'field.init' solve: {exc}") from exc
        init["fixed"] = _cell_values(cx, degree, fiber, init.get("fixed", []), "'fixed'")
        src = init.get("source")
        if src is not None:
            cells = parse_object(src, "solve 'source'", ("cells",))["cells"]
            init["source"] = _cell_values(cx, degree, fiber, cells, "source 'cells'")
    return init


def _build_fiber(name, algebra: alg.LieAlgebra) -> FiberSpec:
    if name == "algebra":
        return algebra_fiber(algebra)
    if name == "complex_pair":
        return COMPLEX_PAIR
    if name == "real_scalar":
        return REAL_SCALAR
    raise ConfigError(f"unknown fiber {name!r}")


def _build_group_element(name, spec, algebra: alg.LieAlgebra) -> alg.GroupElement:
    parse_object(spec, f"group element {name!r}", ("type",), ("coeffs", "algebra", "rows"))
    try:
        if spec["type"] == "exp":
            parse_object(spec, "an exp element", ("type", "coeffs"), ("algebra",))
            source = alg.algebra_by_name(spec.get("algebra", algebra.name))
            if source is not algebra:
                raise ConfigError(
                    f"group element {name!r} uses algebra {source.name!r} but the "
                    f"scenario algebra is {algebra.name!r}"
                )
            coeffs = [parse_number(float, v, "'coeffs'") for v in parse_list(spec["coeffs"], "'coeffs'")]
            # coefficients near the float limit overflow the algebra matrix,
            # whose exponential is then rejected as non-finite
            with np.errstate(over="ignore", invalid="ignore"):
                x = source.element(coeffs)
            return alg.exponential(x)
        if spec["type"] == "matrix":
            rows = parse_object(spec, "a matrix element", ("type", "rows"))["rows"]
            n = algebra.generators.shape[-1]  # the group's matrices are n x n
            rows = [parse_list(row, "a row of 'rows'", n) for row in parse_list(rows, "'rows'", n)]
            matrix = np.array([[_complex_entry(v, "matrix entry") for v in row] for row in rows])
            return alg.GroupElement(algebra.group, matrix)
    except FormlabError as exc:
        raise ConfigError(f"bad group element {name!r}: {exc}") from exc
    raise ConfigError(f"group element {name!r}: unknown type {spec['type']!r}")


def _complex_entry(value, what: str) -> complex:
    """A number, or an [re, im] pair of numbers, as a complex number."""
    if isinstance(value, list) and len(value) == 2:
        return complex(parse_number(float, value[0], what), parse_number(float, value[1], what))
    return complex(parse_number(float, value, what))


def parse_fiber_value(fiber: FiberSpec, raw) -> np.ndarray:
    """Parse one fiber value from its JSON form."""
    what = "cell 'value'"
    if fiber.kind == "real_scalar":
        if isinstance(raw, list) and len(raw) == 1:
            (raw,) = raw
        return np.array([parse_number(float, raw, what)])
    if fiber.kind == "complex_pair":
        return np.array([_complex_entry(v, what) for v in parse_list(raw, what, 2)])
    return np.array([parse_number(float, v, what) for v in parse_list(raw, what, fiber.components)])


def resolve_chain(scenario: Scenario, spec) -> Chain:
    try:
        chain = named_cycle(scenario.complex, spec)
    except DomainError as exc:
        raise ConfigError(f"bad chain spec: {exc}") from exc
    # integer boundaries run in int64 and integrals scale float values, so a
    # coefficient must be an integer that a float holds exactly
    big = chain.coefs[np.abs(chain.coefs) > 2**53]
    if big.size:
        raise ConfigError(f"bad chain spec: coefficient {big[0]} exceeds 2**53 in magnitude")
    return chain


def _resolve_requests(scenario: Scenario) -> None:
    """Check each charge and defect request, parse its numbers and resolve its
    chains into the entry its command reads; the request dicts stay as written."""
    for i, req in enumerate(scenario.charges):
        parse_object(req, f"charge request {i}", ("kind", "support"), ("name",))
        if req["kind"] not in ("eom", "trivial"):
            raise ConfigError(f"charge request {i}: 'kind' must be 'eom' or 'trivial'")
        support = resolve_chain(scenario, req["support"])
        try:
            check_charge(req["kind"], scenario.field_degree, support)
        except FormlabError as exc:
            raise ConfigError(f"charge request {i}: {exc}") from exc
        scenario.charge_chains.append((req.get("name", f"charge_{i}"), req["kind"], support))
    if scenario.defects:
        try:
            GroupoidRep(scenario.fiber)  # a defect acts on the charged field's fiber
        except FormlabError as exc:
            raise ConfigError(f"'defects': {exc}") from exc
    for i, req in enumerate(scenario.defects):
        parse_object(req, f"defect request {i}", ("g", "degree", "support", "move", "charged"), ("name",))
        if not isinstance(req["g"], str) or req["g"] not in scenario.group_elements:
            raise ConfigError(f"defect request {i}: unknown group element {req['g']!r}")
        filling = parse_object(req["move"], f"defect request {i}: 'move'", ("filling",))["filling"]
        charged = parse_object(req["charged"], f"defect request {i}: 'charged'", ("support",), ("degree",))
        degree = parse_number(int, req["degree"], f"defect request {i}: 'degree'")
        charged_degree = parse_number(
            int, charged.get("degree", degree), f"defect request {i}: 'charged.degree'"
        )
        support, filling, charged_support = (
            resolve_chain(scenario, spec) for spec in (req["support"], filling, charged["support"])
        )
        try:
            operator = DefectOperator(scenario.group_elements[req["g"]], degree, support)
            move = DefectMove(operator, Cobordism(scenario.complex, filling, support))
            check_sweep(move, charged_degree, charged_support, scenario.field_degree)
        except FormlabError as exc:
            raise ConfigError(f"defect request {i}: {exc}") from exc
        scenario.defect_moves.append(
            (req.get("name", f"defect_{i}"), move, charged_support, charged_degree)
        )
    for kind, entries in (("charge", scenario.charge_chains), ("defect", scenario.defect_moves)):
        names = set()
        for i, (name, *_) in enumerate(entries):
            if not isinstance(name, str) or name in names:
                raise ConfigError(f"{kind} request {i}: 'name' must be a distinct string, got {name!r}")
            names.add(name)


def representation_for(scenario: Scenario) -> GroupoidRep:
    """The representation compose and the checks evaluate words in: the
    field's fiber, or the algebra's where a real scalar carries no action."""
    fiber = scenario.fiber
    if fiber.kind == "real_scalar":
        fiber = algebra_fiber(scenario.algebra)
    return GroupoidRep(fiber)


def build_field(scenario: Scenario) -> Cochain:
    """Build the scenario's field cochain from its init spec."""
    cx = scenario.complex
    degree = scenario.field_degree
    fiber = scenario.fiber
    init = scenario.field_init
    if init["init"] == "random_gaussian":
        rng = np.random.default_rng(init.get("seed", scenario.seed))
        return Cochain.random_gaussian(cx, degree, fiber, rng, init["stddev"])
    if init["init"] == "explicit":
        if "csv" in init:
            from .fieldio import load_field_csv

            return load_field_csv(cx, degree, fiber, scenario.base_dir / init["csv"])
        return _cells_cochain(cx, degree, fiber, init["cells"])
    if init["init"] == "solve":
        source = init.get("source")
        if source is not None:
            source = _cells_cochain(cx, degree, fiber, source)
        return solve_free(
            cx, fiber, degree, fixed=dict(init["fixed"]), source=source,
            tol=scenario.tolerances["solver"],
        )
    return Cochain.zeros(cx, degree, fiber)


def _cells_cochain(cx: CubicalComplex, degree: int, fiber: FiberSpec, pairs) -> Cochain:
    """The cochain of parsed cell values: each value on its cell, zero elsewhere."""
    values = np.zeros((cx.cell_count(degree), fiber.components), dtype=fiber.dtype)
    for idx, value in pairs:
        values[idx] = value
    return Cochain(cx, degree, fiber, values)


def _cell_values(cx: CubicalComplex, degree: int, fiber: FiberSpec, items, what: str):
    """(cell index, fiber value) for each {"base", "axes", "value"} item of a list."""
    pairs = []
    for item in parse_list(items, what):
        parse_object(item, f"a {what} item", ("base", "axes", "value"))
        try:
            base = parse_integers(item["base"], "cell 'base'")
            axes = parse_integers(item["axes"], "cell 'axes'")
            index = int(cx.cell_indices(degree, axes, base))
        except FormlabError as exc:
            raise ConfigError(f"bad cell reference {item!r}: {exc}") from exc
        pairs.append((index, parse_fiber_value(fiber, item["value"])))
    return pairs
