"""Acceptance suite: one test per criterion, at the stated tolerances.

Run with `pytest -s tests/test_acceptance.py` to see one PASS line per
criterion.
"""

import json
import time
from pathlib import Path

import numpy as np
import pytest

from formlab import (
    COMPLEX_PAIR,
    Chain,
    ChargedOperator,
    Cobordism,
    Cochain,
    CubicalComplex,
    DefectMove,
    DefectOperator,
    DegreeError,
    GradedMorphism,
    GroupoidRep,
    REAL_SCALAR,
    action,
    adjoint,
    algebra_fiber,
    apply_defect,
    apply_fiber_map,
    boundary,
    charge_eom,
    charge_trivial,
    compose,
    d,
    eom_residual,
    identity,
    integrate,
    intersection_number,
    inverse,
    max_norm,
    named_cycle,
    pairing,
    so3,
    so3_rotation,
    solve_free,
    star,
    u2,
)
from formlab.algebra import adjoint_matrix, random_element, random_group_element
from formlab.cli import main
from formlab.dsl import CompositionExpr, Diagnostic, evaluate, parse, typecheck
from formlab.graded import primitive_morphism

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def report(criterion, label):
    print(f"[acceptance] criterion {criterion} ({label}): PASS")


def closed_one_form(cx, fiber, rng):
    psi = d(Cochain.random_gaussian(cx, 0, fiber, rng))
    vals = np.array(psi.values)
    axis_of = np.array([cx.cell(1, i).axes[0] for i in range(cx.cell_count(1))])
    for axis in range(cx.d):
        shift = rng.standard_normal(fiber.components)
        if fiber.is_complex:
            shift = shift + 1j * rng.standard_normal(fiber.components)
        vals[axis_of == axis] += shift
    return Cochain(cx, 1, fiber, vals)


def test_criterion_1_exactness_of_the_complex():
    start = time.perf_counter()
    rng = np.random.default_rng(1)
    for shape in [(2, 2), (3, 3), (2, 2, 2), (4, 4, 4)]:
        cx = CubicalComplex(shape)
        for p in range(2, cx.d + 1):
            assert (cx.boundary_matrix(p - 1) @ cx.boundary_matrix(p)).nnz == 0
        for p in range(cx.d - 1):
            vals = rng.integers(-9, 10, size=(cx.cell_count(p), 1)).astype(float)
            psi = Cochain(cx, p, REAL_SCALAR, vals)
            assert max_norm(d(d(psi))) == 0.0
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    report(1, "exactness of the complex")


def test_criterion_2_discrete_stokes():
    start = time.perf_counter()
    rng = np.random.default_rng(2)
    cx = CubicalComplex([8, 8, 8])
    for p in range(3):
        for _ in range(100):
            psi = Cochain.random_gaussian(cx, p, REAL_SCALAR, rng)
            picks = rng.choice(cx.cell_count(p + 1), size=10, replace=False)
            sigma = Chain(cx, p + 1, {int(i): int(rng.integers(-3, 4)) or 1 for i in picks})
            lhs = integrate(d(psi), sigma)
            rhs = integrate(psi, boundary(sigma))
            assert abs(lhs - rhs) <= 1e-12 * (1 + abs(lhs))
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    report(2, "discrete Stokes")


def test_criterion_3_eom_solver():
    start = time.perf_counter()
    rng = np.random.default_rng(3)
    cx = CubicalComplex([8, 8, 8])
    for fiber in (algebra_fiber(so3()), algebra_fiber(u2()), COMPLEX_PAIR):
        target = closed_one_form(cx, fiber, rng)
        picks = rng.choice(cx.cell_count(1), size=12, replace=False)
        psi = solve_free(cx, fiber, 1, fixed={int(i): target.values[i] for i in picks})
        assert max_norm(eom_residual(psi)) <= 1e-10
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    report(3, "equation-of-motion solver")


def test_criterion_4_charge_topological_invariance():
    rng = np.random.default_rng(4)
    cx = CubicalComplex([6, 6, 6])
    fiber = COMPLEX_PAIR
    psi = Cochain.random_gaussian(cx, 1, fiber, rng)  # arbitrary, off shell

    # Q_eom: exactly homology invariant for any field
    patch = Chain(cx, 2, {cx.cell_index(2, (i, j, 1), (0, 1)): 1 for i in range(3) for j in range(2)})
    bump = Chain(cx, 3, {cx.cell_index(3, (1, 0, 0), (0, 1, 2)): 2, cx.cell_index(3, (0, 0, 1), (0, 1, 2)): -1})
    q0 = charge_eom(psi, patch)
    q1 = charge_eom(psi, patch + boundary(bump))
    assert np.max(np.abs(q1 - q0)) <= 1e-12 * (1 + np.max(np.abs(q0)))
    plane0 = named_cycle(cx, {"kind": "plane", "normal": 2, "offset": 0})
    plane2 = named_cycle(cx, {"kind": "plane", "normal": 2, "offset": 2})
    qp0 = charge_eom(psi, plane0)
    qp2 = charge_eom(psi, plane2)
    assert np.max(np.abs(qp2 - qp0)) <= 1e-12 * (1 + np.max(np.abs(qp0)))

    # Q_trivial: invariant on shell within the solver-derived bound
    target = closed_one_form(cx, fiber, rng)
    picks = rng.choice(cx.cell_count(1), size=10, replace=False)
    onshell = solve_free(cx, fiber, 1, fixed={int(i): target.values[i] for i in picks})
    loop0 = named_cycle(cx, {"kind": "loop", "axis": 0, "offsets": [0, 0]})
    loop1 = named_cycle(cx, {"kind": "loop", "axis": 0, "offsets": [2, 3]})
    dq = charge_trivial(onshell, loop1) - charge_trivial(onshell, loop0)
    assert np.max(np.abs(dq)) <= 1e-8

    # off shell the difference equals the enclosed residual flux exactly
    loopa = named_cycle(cx, {"kind": "loop", "axis": 0, "offsets": [0, 0]})
    loopb = named_cycle(cx, {"kind": "loop", "axis": 0, "offsets": [1, 0]})
    strip = Chain(cx, 2, {cx.cell_index(2, (i, 0, 0), (0, 1)): -1 for i in range(6)})
    assert boundary(strip) == loopb - loopa
    delta = charge_trivial(psi, loopb) - charge_trivial(psi, loopa)
    flux = integrate(eom_residual(psi), strip)
    assert np.max(np.abs(delta - flux)) <= 1e-12 * (1 + np.max(np.abs(flux)))
    report(4, "charge topological invariance")


def test_criterion_5_ad_invariance_and_global_symmetry():
    rng = np.random.default_rng(5)
    for algebra in (so3(), u2()):
        for _ in range(1000):
            g = random_group_element(algebra, rng)
            x = random_element(algebra, rng)
            y = random_element(algebra, rng)
            dev = abs(pairing(adjoint(g, x), adjoint(g, y)) - pairing(x, y))
            assert dev <= 1e-12

    cx = CubicalComplex([6, 6, 6])
    psi = Cochain.random_gaussian(cx, 1, algebra_fiber(so3()), rng)
    s0 = action(psi)
    for _ in range(20):
        g = random_group_element(so3(), rng)
        s1 = action(apply_fiber_map(psi, adjoint_matrix(g, so3())))
        assert abs(s1 - s0) <= 1e-12 * (1 + abs(s0))
    phi = Cochain.random_gaussian(cx, 1, COMPLEX_PAIR, rng)
    t0 = action(phi)
    for _ in range(20):
        g = random_group_element(u2(), rng)
        t1 = action(apply_fiber_map(phi, g.matrix))
        assert abs(t1 - t0) <= 1e-12 * (1 + abs(t0))
    report(5, "Ad-invariance and global symmetry")


def test_criterion_6_graded_composition_contract():
    rng = np.random.default_rng(6)
    reps = {"so3": GroupoidRep(algebra_fiber(so3())), "u2": GroupoidRep(algebra_fiber(u2()))}
    for trial in range(10_000):
        name = "so3" if trial % 2 else "u2"
        algebra = so3() if name == "so3" else u2()
        g = random_group_element(algebra, rng)
        h = random_group_element(algebra, rng)
        s = int(rng.integers(0, 2))
        with pytest.raises(DegreeError):
            compose(primitive_morphism(g, s), primitive_morphism(h, s))
        first = primitive_morphism(h, s)
        second = primitive_morphism(g, first.target)
        total = compose(second, first)  # alternating pair always composes
        rep = reps[name]
        dev = np.max(np.abs(rep.matrix(total.g) - rep.matrix(second.g) @ rep.matrix(first.g)))
        assert dev <= 1e-12
    report(6, "graded composition contract")


def test_criterion_7_groupoid_laws_quaternion():
    start = time.perf_counter()
    i = np.array([[1j, 0], [0, -1j]])
    j = np.array([[0, 1], [-1, 0]], dtype=np.complex128)
    k = i @ j
    from formlab.algebra import GroupElement

    elements = [
        GroupElement("U2", s * u)
        for u in (np.eye(2, dtype=np.complex128), i, j, k)
        for s in (1, -1)
    ]
    e = identity("U2")
    morphisms = [
        GradedMorphism(g, src, sh)
        for g in elements
        for src in (0, 1)
        for sh in (0, 1)
    ]

    def same(a, b):
        return (
            a.source == b.source
            and a.shift == b.shift
            and np.max(np.abs(a.g.matrix - b.g.matrix)) <= 1e-12
        )

    for m in morphisms:
        id_src = GradedMorphism(e, m.source, 0)
        id_tgt = GradedMorphism(e, m.target, 0)
        assert same(compose(m, id_src), m)
        assert same(compose(id_tgt, m), m)
        inv = inverse(m)
        assert same(compose(inv, m), id_src)
        assert same(compose(m, inv), id_tgt)

    checked = 0
    for a in morphisms:
        for b in morphisms:
            if a.target != b.source:
                with pytest.raises(DegreeError):
                    compose(b, a)
                continue
            ba = compose(b, a)
            for c in morphisms:
                if b.target != c.source:
                    continue
                checked += 1
                assert same(compose(c, ba), compose(compose(c, b), a))
    assert checked == 16 * 16 * 32  # exhaustive over the closure
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    report(7, "groupoid laws on the quaternion closure")


def test_criterion_8_noncommutative_defect_witness():
    g = so3_rotation(0, np.pi / 2)
    h = so3_rotation(2, np.pi / 2)
    rep = GroupoidRep(algebra_fiber(so3()))
    table = {"g": g, "h": h}
    m1 = rep.matrix(evaluate(typecheck(parse("g[1] . h[0]"), table), rep).morphism.g)
    m2 = rep.matrix(evaluate(typecheck(parse("h[1] . g[0]"), table), rep).morphism.g)
    # matrix-product oracle from the literal quarter-turn matrices
    rx = np.array([[1.0, 0, 0], [0, 0, -1], [0, 1, 0]])
    rz = np.array([[0.0, -1, 0], [1, 0, 0], [0, 0, 1]])
    assert np.max(np.abs(m1 - rx @ rz)) <= 1e-12
    assert np.max(np.abs(m2 - rz @ rx)) <= 1e-12
    gap = np.linalg.norm(m1 - m2, 2)
    assert gap > 0.1
    assert abs(gap - np.sqrt(3)) <= 1e-12
    report(8, "noncommutative defect witness")


def test_criterion_9_defect_topologicality():
    rng = np.random.default_rng(9)
    cx = CubicalComplex([4, 4, 4])
    fiber = algebra_fiber(so3())
    rep = GroupoidRep(fiber)
    psi = Cochain.random_gaussian(cx, 1, fiber, rng)
    gamma = named_cycle(cx, {"kind": "loop", "axis": 0, "offsets": [0, 0]})
    op = ChargedOperator(gamma, psi, 0)
    g = so3_rotation(1, 0.9)

    def sweep(z, coef=1):
        src = named_cycle(cx, {"kind": "loop", "axis": 1, "offsets": [0, z]})
        filling = Chain(cx, 2, {cx.cell_index(2, (0, j, z), (1, 2)): coef for j in range(4)})
        defect = DefectOperator(g, 0, src)
        return defect, DefectMove(defect, Cobordism(cx, filling, src))

    defect, clear = sweep(z=1)
    assert intersection_number(gamma, clear.cobordism.filling) == 0
    assert apply_defect(defect, op, clear, rep) is op

    defect, crossing = sweep(z=3)
    assert intersection_number(gamma, crossing.cobordism.filling) == 1
    out = apply_defect(defect, op, crossing, rep)
    assert out.degree == 1
    assert np.max(np.abs(out.observable - rep.matrix(g) @ op.observable)) <= 1e-12
    assert np.max(np.abs(out.field.values - psi.values @ rep.matrix(g).T)) <= 1e-12

    mismatched = DefectOperator(g, 1, crossing.cobordism.source)
    move = DefectMove(mismatched, crossing.cobordism)
    with pytest.raises(DegreeError):
        apply_defect(mismatched, op, move, rep)
    op1 = ChargedOperator(gamma, psi, 1)
    defect0, move0 = sweep(z=3)
    with pytest.raises(DegreeError):
        apply_defect(defect0, op1, move0, rep)
    report(9, "defect topologicality")


def test_criterion_10_dsl_roundtrip_offsets_and_soundness():
    rng = np.random.default_rng(10)
    table = {
        "e": identity("SO3"),
        "g": so3_rotation(0, 1.0),
        "h": so3_rotation(2, -0.5),
        "rot": so3_rotation(1, 2.0),
    }
    rep = GroupoidRep(algebra_fiber(so3()))
    names = list(table)

    # 50-case parser round trip
    corpus = []
    for case in range(50):
        n = case % 6 + 1
        atoms = [f"{names[(case + k) % len(names)]}[{(case + k) % 2}]" for k in range(n)]
        sep = [" . ", ".", "  .  "][case % 3]
        corpus.append(sep.join(atoms))
    for source in corpus:
        expr = parse(source)
        assert isinstance(expr, CompositionExpr)
        printed = expr.to_source()
        again = parse(printed)
        assert again == expr and again.to_source() == printed

    # degree_mismatch diagnostics carry the offset of the offending atom,
    # predicted here independently of the checker
    for _ in range(500):
        n = int(rng.integers(2, 7))
        atoms = [(names[rng.integers(len(names))], int(rng.integers(2))) for _ in range(n)]
        source = " . ".join(f"{nm}[{dg}]" for nm, dg in atoms)
        offsets, pos = [], 0
        for nm, dg in atoms:
            offsets.append(pos)
            pos += len(nm) + 3 + 3  # name + "[d]" + " . "
        expected = None
        for idx in range(1, n):
            nm, dg = atoms[idx]
            target = (dg + (nm != "e")) % 2
            if target != atoms[idx - 1][1]:
                expected = idx
                break
        outcome = typecheck(parse(source), table)
        if expected is None:
            assert not isinstance(outcome, Diagnostic)
        else:
            assert isinstance(outcome, Diagnostic)
            assert outcome.kind == "degree_mismatch"
            assert outcome.offset == offsets[expected]

    # fuzz: anything that typechecks must evaluate
    accepted = 0
    for _ in range(10_000):
        n = int(rng.integers(1, 13))
        source = " . ".join(
            f"{names[rng.integers(len(names))]}[{rng.integers(2)}]" for _ in range(n)
        )
        chain = typecheck(parse(source), table)
        if isinstance(chain, Diagnostic):
            continue
        accepted += 1
        out = evaluate(chain, rep)
        assert rep.matrix(out.morphism.g).shape == (3, 3)
    assert accepted > 100
    report(10, "DSL round trip, offsets, soundness")


def test_criterion_11_report_determinism(tmp_path):
    outs = []
    for name in ("a.json", "b.json"):
        out = tmp_path / name
        code = main(["check", str(CONFIG_DIR / "so3_check.json"), "--out", str(out)])
        assert code == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]
    assert json.loads(outs[0])["checks"]
    report(11, "report determinism")
