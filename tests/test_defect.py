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
    DomainError,
    GeometryError,
    GroupoidRep,
    algebra_fiber,
    apply_defect,
    apply_fiber_map,
    boundary,
    charge_eom,
    charge_trivial,
    conservation_report,
    d,
    eom_residual,
    integrate,
    intersection_number,
    max_norm,
    named_cycle,
    so3,
    solve_free,
)
from formlab.algebra import adjoint_matrix
from formlab.mesh import _unit_chain

from helpers import rotation

SO3_FIBER = algebra_fiber(so3())
SO3_REP = GroupoidRep(SO3_FIBER)


def x_loop(cx, y=0, z=0):
    return named_cycle(cx, {"kind": "loop", "axis": 0, "offsets": [y, z]})


def y_loop(cx, x=0, z=0):
    return named_cycle(cx, {"kind": "loop", "axis": 1, "offsets": [x, z]})


def yz_sweep(cx, x, z, coef=1):
    """Squares swept when a y-loop at (x, z) moves one step in z."""
    n = cx.shape[1]
    return Chain(cx, 2, cx.cell_indices(2, (1, 2), [[x] * n, range(n), [z] * n]), [coef] * n)


def crossing_move(cx, g, degree, gamma_offsets=(0, 0)):
    """A defect move whose sweep crosses the x-loop at gamma_offsets once."""
    y0, z0 = gamma_offsets
    z_src = (z0 - 1) % cx.shape[2]
    src = y_loop(cx, x=0, z=z_src)
    filling = yz_sweep(cx, 0, z_src)
    defect = DefectOperator(g, degree, src)
    return defect, DefectMove(defect, Cobordism(cx, filling, src))


# -- charges -----------------------------------------------------------------


def test_charge_eom_constant_field(torus444):
    psi = Cochain(torus444, 1, SO3_FIBER, np.ones((torus444.cell_count(1), 3)))
    patch = Chain(torus444, 2, [0, 5], [1, 2])
    assert np.array_equal(charge_eom(psi, patch), np.zeros(3))


def test_charge_eom_vanishes_on_boundaries(rng, torus444):
    psi = Cochain.random_gaussian(torus444, 1, SO3_FIBER, rng)
    cubes = np.unique(rng.choice(torus444.cell_count(3), 5))
    volume = Chain(torus444, 3, cubes, np.full(cubes.size, 2))
    q = charge_eom(psi, boundary(volume))
    assert np.max(np.abs(q)) <= 1e-12


def test_charge_eom_two_summation_routes_agree(torus444):
    # one nonzero edge value; a bounded plane patch next to it
    cx = torus444
    vals = np.zeros((cx.cell_count(1), 3))
    vals[cx.cell_indices(1, (0,), (0, 0, 0))] = [0.7, -0.2, 1.5]  # on the patch perimeter
    psi = Cochain(cx, 1, SO3_FIBER, vals)
    patch = Chain(cx, 2, cx.cell_indices(2, (0, 1), np.indices((2, 2, 1)).reshape(3, -1)), [1] * 4)
    direct = charge_eom(psi, patch)  # coordinate route: sum d(psi) over the patch
    stokes = integrate(psi, boundary(patch))  # boundary route
    assert np.array_equal(direct, stokes)
    assert np.max(np.abs(direct)) > 0
    # a full coordinate plane is a cycle, so the charge of an exact current vanishes
    plane = named_cycle(cx, {"kind": "plane", "normal": 2, "offset": 0})
    assert np.max(np.abs(charge_eom(psi, plane))) <= 1e-13


def test_charge_trivial_constant_field(torus444):
    psi = Cochain(torus444, 1, SO3_FIBER, np.ones((torus444.cell_count(1), 3)))
    assert np.array_equal(charge_trivial(psi, x_loop(torus444)), np.zeros(3))


def test_charge_trivial_requires_cycle(torus444):
    psi = Cochain.zeros(torus444, 1, SO3_FIBER)
    open_chain = Chain(torus444, 1, [0], [1])
    with pytest.raises(DomainError):
        charge_trivial(psi, open_chain)


def test_charge_trivial_on_shell_invariance(rng):
    cx = CubicalComplex([6, 6, 6])
    exact = d(Cochain.random_gaussian(cx, 0, SO3_FIBER, rng))
    picks = rng.choice(cx.cell_count(1), size=8, replace=False)
    psi = solve_free(cx, SO3_FIBER, 1, fixed={int(i): exact.values[i] for i in picks})
    assert max_norm(eom_residual(psi)) <= 1e-10
    q0 = charge_trivial(psi, x_loop(cx, 0, 0))
    q1 = charge_trivial(psi, x_loop(cx, 3, 2))
    assert np.max(np.abs(q1 - q0)) <= 1e-8


def test_charge_trivial_off_shell_difference_is_enclosed_flux(rng, torus444):
    cx = torus444
    psi = Cochain.random_gaussian(cx, 1, SO3_FIBER, rng)
    loop0 = x_loop(cx, 0, 0)
    loop1 = x_loop(cx, 1, 0)
    strip = Chain(cx, 2, cx.cell_indices(2, (0, 1), [range(4), [0] * 4, [0] * 4]), [-1] * 4)
    assert boundary(strip) == loop1 - loop0
    delta = charge_trivial(psi, loop1) - charge_trivial(psi, loop0)
    flux = integrate(eom_residual(psi), strip)
    assert np.max(np.abs(delta - flux)) <= 1e-12 * (1 + np.max(np.abs(flux)))


def test_charge_argument_validation(torus444):
    psi2d = Cochain.zeros(CubicalComplex([4, 4]), 1, SO3_FIBER)
    with pytest.raises(DomainError):
        charge_eom(psi2d, Chain(psi2d.complex, 1))
    psi = Cochain.zeros(torus444, 2, SO3_FIBER)
    with pytest.raises(DomainError):
        charge_eom(psi, Chain(torus444, 2))


# -- defect actions ----------------------------------------------------------


def test_charged_operator_caches_observable(rng, torus444):
    psi = Cochain.random_gaussian(torus444, 1, SO3_FIBER, rng)
    gamma = x_loop(torus444)
    op = ChargedOperator(gamma, psi, 0)
    assert np.max(np.abs(op.observable - integrate(psi, gamma))) <= 1e-13
    open_chain = Chain(torus444, 1, [0], [1])
    with pytest.raises(DomainError):
        ChargedOperator(open_chain, psi, 0)


def test_charged_operator_derives_its_observable(rng, torus444):
    psi = Cochain.random_gaussian(torus444, 1, SO3_FIBER, rng)
    # the observable is always the integral, never an argument
    with pytest.raises(TypeError):
        ChargedOperator(x_loop(torus444), psi, 0, observable=np.zeros(3))


def test_observable_is_linear_in_field_and_support(rng, torus444):
    cx = torus444
    psi = Cochain.random_gaussian(cx, 1, SO3_FIBER, rng)
    phi = Cochain.random_gaussian(cx, 1, SO3_FIBER, rng)
    gamma = x_loop(cx, 0, 0)
    combined = ChargedOperator(gamma, 2 * psi + phi, 0).observable
    parts = 2 * ChargedOperator(gamma, psi, 0).observable + ChargedOperator(gamma, phi, 0).observable
    assert np.max(np.abs(combined - parts)) <= 1e-12
    gamma2 = x_loop(cx, 2, 1)
    both = ChargedOperator(gamma + gamma2, psi, 0).observable
    split = ChargedOperator(gamma, psi, 0).observable + ChargedOperator(gamma2, psi, 0).observable
    assert np.max(np.abs(both - split)) <= 1e-12


def test_noncrossing_move_is_bit_identical(rng, torus444):
    psi = Cochain.random_gaussian(torus444, 1, SO3_FIBER, rng)
    op = ChargedOperator(x_loop(torus444, 0, 0), psi, 0)
    g = rotation(0, np.pi / 2)
    src = y_loop(torus444, x=0, z=1)
    defect = DefectOperator(g, 0, src)
    move = DefectMove(defect, Cobordism(torus444, yz_sweep(torus444, 0, 1), src))
    assert intersection_number(op.support, move.cobordism.filling) == 0
    assert apply_defect(defect, op, move, SO3_REP) is op


def test_single_crossing_applies_rep_once_and_flips_degree(rng, torus444):
    psi = Cochain.random_gaussian(torus444, 1, SO3_FIBER, rng)
    op = ChargedOperator(x_loop(torus444, 0, 0), psi, 0)
    g = rotation(0, np.pi / 2)
    defect, move = crossing_move(torus444, g, 0)
    n = intersection_number(op.support, move.cobordism.filling)
    assert n == 1
    out = apply_defect(defect, op, move, SO3_REP)
    assert out.degree == 1
    expected = adjoint_matrix(g, so3()) @ op.observable
    assert np.max(np.abs(out.observable - expected)) <= 1e-12


def test_sweep_forward_then_backward_restores(rng, torus444):
    cx = torus444
    psi = Cochain.random_gaussian(cx, 1, SO3_FIBER, rng)
    op = ChargedOperator(x_loop(cx, 0, 0), psi, 0)
    g = rotation(2, 0.8)
    defect, move = crossing_move(cx, g, 0)
    swept = apply_defect(defect, op, move, SO3_REP)
    assert swept.degree == 1
    back_defect = DefectOperator(g, 1, move.cobordism.target)
    back_filling = -1 * move.cobordism.filling
    back_move = DefectMove(
        back_defect, Cobordism(cx, back_filling, move.cobordism.target)
    )
    assert intersection_number(op.support, back_filling) == -1
    restored = apply_defect(back_defect, swept, back_move, SO3_REP)
    assert restored.degree == 0
    assert np.max(np.abs(restored.observable - op.observable)) <= 1e-12
    # the -1 crossing acts by the group's exact inverse, not by a matrix inverse
    inverse = apply_fiber_map(swept.field, SO3_REP.matrix(g.inverse()))
    assert np.array_equal(restored.field.values, inverse.values)


def test_identity_defect_never_flips_degree(rng, torus444):
    from formlab import identity

    psi = Cochain.random_gaussian(torus444, 1, SO3_FIBER, rng)
    op = ChargedOperator(x_loop(torus444, 0, 0), psi, 0)
    defect, move = crossing_move(torus444, identity("SO3"), 0)
    out = apply_defect(defect, op, move, SO3_REP)
    assert out.degree == 0
    assert np.max(np.abs(out.observable - op.observable)) <= 1e-13


def test_degree_mismatch_raises(rng, torus444):
    psi = Cochain.random_gaussian(torus444, 1, SO3_FIBER, rng)
    op = ChargedOperator(x_loop(torus444, 0, 0), psi, 0)
    g = rotation(0, np.pi / 2)
    defect, move = crossing_move(torus444, g, 1)
    with pytest.raises(DegreeError):
        apply_defect(defect, op, move, SO3_REP)
    with pytest.raises(DegreeError):
        ChargedOperator(op.support, psi, 2)  # a degree is 0 or 1
    with pytest.raises(DegreeError):
        ChargedOperator(op.support, psi, True)  # ... and not a boolean
    with pytest.raises(DegreeError):
        DefectOperator(g, True, defect.support)


def test_unsupported_geometry_raises(rng, torus444):
    cx = torus444
    psi2 = Cochain.random_gaussian(cx, 2, SO3_FIBER, rng)
    plane = named_cycle(cx, {"kind": "plane", "normal": 2, "offset": 0})
    op2 = ChargedOperator(plane, psi2, 0)  # p = 2: no complementary defect
    g = rotation(0, np.pi / 2)
    src = y_loop(cx, 0, 1)
    defect = DefectOperator(g, 0, src)
    move = DefectMove(defect, Cobordism(cx, yz_sweep(cx, 0, 1), src))
    with pytest.raises(GeometryError):
        apply_defect(defect, op2, move, SO3_REP)


def test_output_depends_only_on_crossing_number(rng, torus444):
    cx = torus444
    psi = Cochain.random_gaussian(cx, 1, SO3_FIBER, rng)
    op = ChargedOperator(x_loop(cx, 0, 0), psi, 0)
    g = rotation(1, 1.1)
    defect, move = crossing_move(cx, g, 0)
    # add a closed 2-chain the charged support does not cross
    extra = named_cycle(cx, {"kind": "plane", "normal": 1, "offset": 2})
    filling2 = move.cobordism.filling + extra
    move2 = DefectMove(defect, Cobordism(cx, filling2, defect.support))
    n1 = intersection_number(op.support, move.cobordism.filling)
    n2 = intersection_number(op.support, filling2)
    assert n1 == n2 == 1
    out1 = apply_defect(defect, op, move, SO3_REP)
    out2 = apply_defect(defect, op, move2, SO3_REP)
    assert out1.degree == out2.degree
    assert np.array_equal(out1.observable, out2.observable)
    assert np.array_equal(out1.field.values, out2.field.values)


def test_complex_pair_defect(rng, torus444):
    from formlab import exponential, u2

    psi = Cochain.random_gaussian(torus444, 1, COMPLEX_PAIR, rng)
    op = ChargedOperator(x_loop(torus444, 0, 0), psi, 0)
    u = exponential(u2().element([0.3, -0.4, 0.2, 0.9]))
    rep = GroupoidRep(COMPLEX_PAIR)
    defect, move = crossing_move(torus444, u, 0)
    out = apply_defect(defect, op, move, rep)
    assert out.degree == 1
    assert np.max(np.abs(out.observable - u.matrix @ op.observable)) <= 1e-12


def test_conservation_report_on_box_mesh():
    box = CubicalComplex([4], topology="box")
    psi = solve_free(box, algebra_fiber(so3()), 0, fixed={0: [1.0, 0, 0], 4: [0.0, 0, 0]})
    rep = conservation_report(psi)
    assert rep.dynamical_current_norm is None  # no reindexing star on a box
    assert rep.action is not None and rep.action > 0
    assert rep.charges == {}


@pytest.mark.parametrize(
    "shape,degree,keys",
    [
        ((3, 4, 2), 0, ["q_trivial_axes01", "q_trivial_axes02", "q_trivial_axes12"]),
        ((3, 4, 2), 1, ["q_trivial_axes0", "q_trivial_axes1", "q_trivial_axes2"]),
        ((3, 4, 2), 2, ["q_trivial_axes"]),
        ((3, 4), 0, ["q_trivial_axes0", "q_trivial_axes1"]),
        ((3, 4), 1, ["q_trivial_axes"]),
    ],
    ids=["3d-p0", "3d-p1", "3d-p2", "2d-p0", "2d-p1"],
)
def test_conservation_report_samples_the_trivial_charge_per_axis_subset(shape, degree, keys, rng):
    # d psi over a closed sub-torus is zero by Stokes, so a report samples
    # only the trivial charge: once per set B of d - p - 1 axes, over the
    # coordinate sub-torus on B at offset 0, keyed by B's digits
    cx = CubicalComplex(shape)
    psi = Cochain.random_gaussian(cx, degree, SO3_FIBER, rng)
    charges = conservation_report(psi).charges
    subsets = cx.axis_subsets(cx.d - degree - 1)
    assert list(charges) == keys == ["q_trivial_axes" + "".join(map(str, b)) for b in subsets]
    for axes, value in zip(subsets, charges.values()):
        support = _unit_chain(cx, axes, [0] * (cx.d - len(axes)), "offset 0")
        assert value.tobytes() == charge_trivial(psi, support).tobytes()
    box = CubicalComplex(shape, topology="box")
    assert conservation_report(Cochain.random_gaussian(box, degree, SO3_FIBER, rng)).charges == {}


def test_conservation_report(rng, torus444):
    cx = torus444
    const = Cochain(cx, 1, SO3_FIBER, np.ones((cx.cell_count(1), 3)))
    rep = conservation_report(const)
    assert rep.trivial_current_norm == 0.0
    assert rep.dynamical_current_norm == 0.0
    assert rep.action == 0.0
    assert all(np.max(np.abs(v)) <= 1e-13 for v in rep.charges.values())

    noisy = conservation_report(Cochain.random_gaussian(cx, 1, SO3_FIBER, rng))
    assert noisy.trivial_current_norm <= 1e-13
    assert noisy.dynamical_current_norm > 1e-3

    exact = d(Cochain.random_gaussian(cx, 0, SO3_FIBER, rng))
    picks = rng.choice(cx.cell_count(1), size=6, replace=False)
    solved = solve_free(cx, SO3_FIBER, 1, fixed={int(i): exact.values[i] for i in picks})
    srep = conservation_report(solved)
    assert srep.trivial_current_norm <= 1e-10
    assert srep.dynamical_current_norm <= 1e-10
