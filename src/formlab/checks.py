"""Named invariant checks backing the `check` CLI command.

Each check is one registry row: its name, the tolerance it is held to and a
measure, which returns the deviation or None when the check does not apply
to the scenario (wrong dimension or topology, scalar fiber).  A check
passes when its deviation (lhs, against the reference value rhs = 0) is at
most its tolerance.
Randomized checks derive their generator from (seed, check index) so that a
report is byte-deterministic for a fixed config.
"""

from __future__ import annotations

import math

import numpy as np

from . import algebra as alg
from ._records import record
from .calculus import (
    Cochain,
    REAL_SCALAR,
    action,
    apply_fiber_map,
    d,
    eom_residual,
    integrate,
    max_norm,
    star,
)
from .config import Scenario, build_field, representation_for
from .defect import (
    ChargedOperator,
    DefectMove,
    DefectOperator,
    apply_defect,
    charge_eom,
    charge_trivial,
    charges_apply,
)
from .errors import ConfigError, DegreeError
from .graded import (
    MATCH_TOL,
    GradedMorphism,
    compose,
    inverse,
    primitive_morphism,
)
from .mesh import Chain, Cobordism, _grid_chain, _unit_chain, boundary
from .dsl import Diagnostic, parse, typecheck


@record()
class CheckResult:
    name: str
    passed: bool
    lhs: float
    rhs: float
    tolerance: float


def quaternion_elements() -> list:
    """The quaternion subgroup {+-1, +-i, +-j, +-k} embedded in U(2)."""
    i = np.array([[1j, 0], [0, -1j]])
    j = np.array([[0, 1], [-1, 0]], dtype=np.complex128)
    k = i @ j
    units = [np.eye(2, dtype=np.complex128), i, j, k]
    return [alg.GroupElement("U2", s * u) for u in units for s in (1, -1)]


def groupoid_law_violations(elements) -> int:
    """Count groupoid-law failures over the closure of the given elements.

    The morphisms are every (element, source degree, shift).  The real
    compose and inverse check identity neutrality and two-sided inverses on
    each morphism.  compose then runs once on every ordered pair: a pair must
    compose exactly when its degrees line up, and each composite must match
    a morphism of the closure, whose index goes into a composition table.
    Associativity over all composable triples is then an integer comparison
    of table lookups.
    """
    group = elements[0].group
    e = alg.identity(group)
    morphisms = [GradedMorphism(g, s, sh) for g in elements for s in (0, 1) for sh in (0, 1)]
    violations = 0
    for m in morphisms:
        id_source, id_target = primitive_morphism(e, m.source), primitive_morphism(e, m.target)
        if not (compose(id_target, m).matches(m) and compose(m, id_source).matches(m)):
            violations += 1
        inv = inverse(m)
        if not compose(inv, m).matches(id_source):
            violations += 1
        if not compose(m, inv).matches(id_target):
            violations += 1
    # GradedMorphism.matches against all morphisms of one (source, shift) at
    # once: their indices in order, and their matrices stacked
    candidates = {}
    for k, m in enumerate(morphisms):
        candidates.setdefault((m.source, m.shift), []).append(k)
    candidates = {
        key: (ks, np.array([morphisms[k].g.matrix for k in ks]))
        for key, ks in candidates.items()
    }
    # after[a, b] is the index of "b after a", -1 where it is undefined
    n = len(morphisms)
    after = np.full((n, n), -1)
    for ia, a in enumerate(morphisms):
        for ib, b in enumerate(morphisms):
            defined = a.target == b.source
            try:
                ba = compose(b, a)
            except DegreeError:
                if defined:
                    violations += 1
                continue
            if not defined:
                violations += 1
                continue
            ks, table = candidates[ba.source, ba.shift]
            hits = np.abs(table - ba.g.matrix).max(axis=(1, 2)) <= MATCH_TOL
            if hits.any():
                after[ia, ib] = ks[hits.argmax()]
            else:
                violations += 1  # the composite left the closure
    # every triple (a, b, c) with ba = after[a, b] and cb = after[b, c]
    # defined must give after[ba, c] == after[a, cb], both defined; one
    # (b, c) table per a
    composable = 0
    known, cs = after >= 0, np.arange(n)
    for a in range(n):
        ba = after[a][:, None]
        defined = (ba >= 0) & known
        lhs, rhs = after[ba, cs], after[a, after]
        composable += np.count_nonzero(defined)
        violations += int(np.count_nonzero(defined & ((lhs < 0) | (lhs != rhs))))
    assert composable > 0
    return violations


@record()
class _Ctx:
    scenario: Scenario
    field: Cochain

    def rng(self, index: int) -> np.random.Generator:
        return np.random.default_rng([self.scenario.seed, index])

    @property
    def complex(self):
        return self.scenario.complex


def _check_boundary_squared(ctx: _Ctx):
    cx = ctx.complex
    worst = 0.0
    for p in range(2, cx.d + 1):
        faces, signs = cx.face_table(p)
        sub_faces, sub_signs = cx.face_table(p - 1)
        # entry (k, j) of boundary(p-1) . boundary(p): the signed count of the
        # faces of the faces of p-cell j that are the (p-2)-cell k
        cells = np.arange(faces.shape[1])
        keys = (cells * cx.cell_count(p - 2) + sub_faces[:, faces]).ravel()
        _, entry = np.unique(keys, return_inverse=True)
        sums = np.bincount(entry.ravel(), weights=(sub_signs[:, faces] * signs).ravel())
        worst = max(worst, float(np.max(np.abs(sums))))
    return worst


def _check_coboundary_squared(ctx: _Ctx):
    cx = ctx.complex
    rng = ctx.rng(1)
    worst = 0.0
    for p in range(0, cx.d - 1):
        vals = rng.integers(-5, 6, size=(cx.cell_count(p), 1)).astype(np.float64)
        psi = Cochain(cx, p, REAL_SCALAR, vals)
        worst = max(worst, max_norm(d(d(psi))))
    return worst


def _check_star_double(ctx: _Ctx):
    cx = ctx.complex
    if cx.topology != "torus":
        return None
    rng = ctx.rng(2)
    worst = 0.0
    for p in range(cx.d + 1):
        psi = Cochain.random_gaussian(cx, p, REAL_SCALAR, rng)
        sign = (-1) ** (p * (cx.d - p))
        worst = max(worst, max_norm(star(star(psi)) - sign * psi))
    return worst


def _check_stokes(ctx: _Ctx):
    cx = ctx.complex
    rng = ctx.rng(3)
    worst = 0.0
    for p in range(cx.d):
        for _ in range(20):
            psi = Cochain.random_gaussian(cx, p, REAL_SCALAR, rng)
            n = cx.cell_count(p + 1)
            cells = rng.choice(n, size=min(8, n), replace=False)
            sigma = Chain(cx, p + 1, cells, [int(rng.integers(1, 4)) for _ in cells])
            lhs = integrate(d(psi), sigma)
            rhs = integrate(psi, boundary(sigma))
            worst = max(worst, abs(lhs - rhs) / (1.0 + abs(lhs)))
    return worst


def _check_gram(ctx: _Ctx):
    a = ctx.scenario.algebra
    basis = [a.element(e) for e in np.eye(a.dim)]
    gram = np.array([[alg.pairing(x, y) for y in basis] for x in basis])
    return float(np.max(np.abs(gram - np.eye(a.dim))))


def _check_closure(ctx: _Ctx):
    a = ctx.scenario.algebra
    basis = [a.element(e) for e in np.eye(a.dim)]
    worst = 0.0
    for x in basis:
        for y in basis:
            m = x.matrix @ y.matrix - y.matrix @ x.matrix
            worst = max(worst, float(np.max(np.abs(m - alg.bracket(x, y).matrix))))
    return worst


def _check_ad_invariance(ctx: _Ctx):
    a = ctx.scenario.algebra
    rng = ctx.rng(6)
    worst = 0.0
    for _ in range(100):
        g = alg.random_group_element(a, rng)
        x = alg.random_element(a, rng)
        y = alg.random_element(a, rng)
        dev = abs(alg.pairing(alg.adjoint(g, x), alg.adjoint(g, y)) - alg.pairing(x, y))
        worst = max(worst, dev)
    return worst


def _check_action_invariance(ctx: _Ctx):
    if ctx.field.degree >= ctx.complex.d:
        return None
    if ctx.scenario.fiber.kind == "real_scalar":
        return None
    rng = ctx.rng(7)
    rep = representation_for(ctx.scenario)
    g = alg.random_group_element(ctx.scenario.algebra, rng)
    s0 = action(ctx.field)
    s1 = action(apply_fiber_map(ctx.field, rep.matrix(g)))
    return abs(s1 - s0) / (1.0 + abs(s0))


def _check_trivial_current(ctx: _Ctx):
    if ctx.field.degree + 2 > ctx.complex.d:
        return None
    return max_norm(d(d(ctx.field)))


def _check_charge_homology(ctx: _Ctx):
    p, cx = ctx.field.degree, ctx.complex
    if not charges_apply(ctx.field) or p + 2 > cx.d:
        return None
    # the 2^(p+1) unit (p+1)-cells on axes 0..p, and the (p+2)-cell on axes 0..p+1
    patch = _grid_chain(cx, range(p + 1), (2,) * (p + 1) + (1,) * (cx.d - p - 1))
    bump = _grid_chain(cx, range(p + 2), (1,) * cx.d)
    moved = patch + boundary(bump)
    q0 = np.atleast_1d(charge_eom(ctx.field, patch))
    q1 = np.atleast_1d(charge_eom(ctx.field, moved))
    return float(np.max(np.abs(q1 - q0)) / (1.0 + np.max(np.abs(q0))))


def _check_flux_identity(ctx: _Ctx):
    if not charges_apply(ctx.field):
        return None
    cx, m = ctx.complex, ctx.complex.d - ctx.field.degree - 1
    # the sub-tori on axes 0..m-1 at offsets 0 and 1 on axis m, and the (m+1)-cells between
    loop0, loop1 = (_unit_chain(cx, range(m), [k] + [0] * (cx.d - m - 1), "offset") for k in (0, 1))
    strip = _grid_chain(cx, range(m + 1), cx.shape[:m] + (1,) * (cx.d - m), coef=(-1) ** m)
    assert boundary(strip) == loop1 - loop0
    delta = np.atleast_1d(charge_trivial(ctx.field, loop1) - charge_trivial(ctx.field, loop0))
    flux = np.atleast_1d(integrate(eom_residual(ctx.field), strip))
    scale = 1.0 + float(np.max(np.abs(flux)))
    return float(np.max(np.abs(delta - flux))) / scale


def _check_defect_gating(ctx: _Ctx):
    p, cx = ctx.field.degree, ctx.complex
    q = cx.d - p - 1
    # defect._check_crossing's rule, on a torus, for a fiber a group acts on
    if not (charges_apply(ctx.field) and q >= p >= 1) or ctx.scenario.fiber.kind == "real_scalar":
        return None
    rep = representation_for(ctx.scenario)
    g = alg.exponential(ctx.scenario.algebra.element([0.7] + [0.0] * (ctx.scenario.algebra.dim - 1)))
    charged = ChargedOperator(_unit_chain(cx, range(p), [0] * (q + 1), "offset"), ctx.field, 0)
    z0 = 1 if cx.shape[-1] - 1 != 1 else 0  # sweep a q-torus along the last axis, away from it
    support = _unit_chain(cx, range(p, cx.d - 1), [0] * p + [z0], "offset")
    filling = _grid_chain(cx, range(p, cx.d), (1,) * p + cx.shape[p:-1] + (1,), [0] * (cx.d - 1) + [z0])
    defect = DefectOperator(g, 0, support)
    move = DefectMove(defect, Cobordism(cx, filling, support))
    return 0.0 if apply_defect(defect, charged, move, rep) is charged else 1.0


def _check_groupoid(ctx: _Ctx):
    return float(groupoid_law_violations(quaternion_elements()))


def _check_composition_contract(ctx: _Ctx):
    rng = ctx.rng(12)
    a = ctx.scenario.algebra
    rep = representation_for(ctx.scenario)
    worst = 0.0
    for _ in range(200):
        g = alg.random_group_element(a, rng)
        h = alg.random_group_element(a, rng)
        s = int(rng.integers(0, 2))
        try:
            compose(primitive_morphism(g, s), primitive_morphism(h, s))
        except DegreeError:
            pass
        else:
            return math.inf  # same-degree non-identity pairs must not compose
        first = primitive_morphism(h, s)
        second = primitive_morphism(g, first.target)
        total = compose(second, first)
        dev = np.max(np.abs(rep.matrix(total.g) - rep.matrix(second.g) @ rep.matrix(first.g)))
        worst = max(worst, float(dev))
    return worst


def _check_dsl(ctx: _Ctx):
    failures = 0
    corpus = ["g[0]", "g[1] . h[0]", "e[0] . g[1] . h[0] . k[1]", "a_1[0] .  b2[1]"]
    for src in corpus:
        expr = parse(src)
        if isinstance(expr, Diagnostic):
            failures += 1
            continue
        again = parse(expr.to_source())
        if isinstance(again, Diagnostic) or again != expr:
            failures += 1
    bad = parse("g[0] . h[0]")
    table = {"g": alg.random_group_element(ctx.scenario.algebra, ctx.rng(13)),
             "h": alg.random_group_element(ctx.scenario.algebra, ctx.rng(14))}
    chain = typecheck(bad, table)
    if not (isinstance(chain, Diagnostic) and chain.kind == "degree_mismatch" and chain.offset == 7):
        failures += 1
    return float(failures)


# (name, tolerance key or None for an exact 0, measure); a measure returns its
# deviation, or None where the check does not apply
_REGISTRY = [
    ("boundary_squared_zero", None, _check_boundary_squared),
    ("coboundary_squared_zero", None, _check_coboundary_squared),
    ("star_double_identity", "star", _check_star_double),
    ("stokes_adjointness", "check", _check_stokes),
    ("generator_gram_identity", "check", _check_gram),
    ("bracket_closure", "check", _check_closure),
    ("adjoint_invariance", "check", _check_ad_invariance),
    ("action_global_invariance", "check", _check_action_invariance),
    ("trivial_current_closed", "exact", _check_trivial_current),
    ("charge_homology_invariance", "check", _check_charge_homology),
    ("trivial_charge_flux_identity", "check", _check_flux_identity),
    ("defect_topological_gating", None, _check_defect_gating),
    ("groupoid_quaternion_laws", None, _check_groupoid),
    ("graded_composition_contract", "check", _check_composition_contract),
    ("dsl_roundtrip", None, _check_dsl),
]

CHECK_NAMES = [name for name, _, _ in _REGISTRY]


# quietly: an overflowing field gives an inf or nan deviation, which fails its check
@np.errstate(over="ignore", invalid="ignore")
def run_checks(scenario: Scenario, names=None) -> list:
    """Run the named checks (all applicable ones by default), in registry order."""
    if names is None:
        names = scenario.checks
    explicit = not (names is None or names == "all" or names == ["all"])
    if explicit:
        unknown = [n for n in names if n not in CHECK_NAMES]
        if unknown:
            raise ConfigError(f"unknown checks: {unknown}")
    ctx = _Ctx(scenario, build_field(scenario))
    results = []
    for name, key, measure in _REGISTRY:
        if explicit and name not in names:
            continue
        lhs = measure(ctx)
        if lhs is None:
            if explicit:
                raise ConfigError(f"check {name!r} does not apply to this scenario")
            continue
        tol = 0.0 if key is None else scenario.tolerances[key]
        results.append(CheckResult(name, lhs <= tol, lhs, 0.0, tol))
    return results
