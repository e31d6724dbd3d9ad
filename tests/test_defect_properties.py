"""The defect layer's claim as properties: a group element acts on a charged
operator through the homology of the sweep alone.

A strategy draws a 3-dimensional torus with 3-6 cells per axis and
power-of-two spacings, a fiber with its group (so(3), u(2) and u(1) on
algebra fibers, U(2) on the complex pair), a random group element and field, a
charged loop, a defect loop of the same degree tag and the strip that
sweeps the defect loop one step along the third axis, with a coefficient
in {-1, 1, 2}.  The charged loop is placed so that about half the sweeps
cross it.  The crossing count n is `intersection_number` of the charged
loop and the filling.

Two more strategies draw on the same meshes: a closed field that is not
exact with a charged cycle moved by a boundary, on the same fibers, and two
sweeps, by g and by h, that each cross the charged loop once, on the
non-abelian ones.

The charges follow from the degrees alone.  A last strategy draws a p-form
on a d-torus, (d, p) one of (2, 0), (3, 0), (3, 1) and (3, 2), with random
supports: the eom charge does not see a boundary added to its (p+1)-chain,
and the trivial charge over a (d-p-1)-cycle moves by the flux of the
equation-of-motion residual through the region the cycle sweeps.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from formlab import (
    COMPLEX_PAIR,
    Chain,
    ChargedOperator,
    Cobordism,
    Cochain,
    CubicalComplex,
    DefectMove,
    DefectOperator,
    GroupoidRep,
    algebra_fiber,
    apply_defect,
    apply_fiber_map,
    boundary,
    charge_eom,
    charge_trivial,
    compose,
    d,
    eom_residual,
    integrate,
    intersection_number,
    named_cycle,
    primitive_morphism,
    so3,
    u1,
    u2,
)
from formlab.algebra import random_group_element

# (algebra the group elements come from, fiber the field takes values in)
NON_ABELIAN = [(so3(), algebra_fiber(so3())), (u2(), algebra_fiber(u2())), (u2(), COMPLEX_PAIR)]
FIBERS = NON_ABELIAN + [(u1(), algebra_fiber(u1()))]
SETTINGS = settings(max_examples=100, derandomize=True, database=None, deadline=None)


def _loop(cx, axis, point):
    offsets = [x for i, x in enumerate(point) if i != axis]
    return named_cycle(cx, {"kind": "loop", "axis": axis, "offsets": offsets})


def _strip(cx, b, c, y, coef):
    """The 2-chain that sweeps the loop along axis b through y one step along
    axis c, each face with coefficient coef."""
    faces = {}
    for j in range(cx.shape[b]):
        base = list(y)
        base[b] = j
        faces[cx.cell_index(2, base, sorted((b, c)))] = coef
    return Chain(cx, 2, faces)


def _torus(draw, fibers=FIBERS):
    """A torus, the algebra of the group elements, a fiber from `fibers` and a generator."""
    shape = draw(st.lists(st.integers(3, 6), min_size=3, max_size=3))
    spacing = [2.0 ** e for e in draw(st.lists(st.integers(-3, 3), min_size=3, max_size=3))]
    algebra, fiber = draw(st.sampled_from(fibers))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return CubicalComplex(shape, spacing=spacing), algebra, fiber, rng


@st.composite
def sweeps(draw):
    """(rep, charged operator, defect, filling, bump): the filling sweeps the
    defect's loop, and bump is the boundary of a random 3-chain."""
    cx, algebra, fiber, rng = _torus(draw)
    shape = cx.shape
    g = random_group_element(algebra, rng)
    field = Cochain.random_gaussian(cx, 1, fiber, rng)
    # the charged loop runs along axis a, the defect loop along b, and the
    # strip moves the defect loop from c-coordinate y[c] to y[c] + 1
    a, b, c = draw(st.permutations(range(3)))
    y = [draw(st.integers(0, n - 1)) for n in shape]
    x = [draw(st.integers(0, n - 1)) for n in shape]
    x[c] = (y[c] + draw(st.integers(0, 1))) % shape[c]
    degree = draw(st.integers(0, 1))
    charged = ChargedOperator(_loop(cx, a, x), field, degree)
    defect = DefectOperator(g, degree, _loop(cx, b, y))
    strip = _strip(cx, b, c, y, draw(st.sampled_from([-1, 1, 2])))
    # cubes along the charged loop, whose boundaries it crosses
    near = st.tuples(
        *(st.integers(0, n - 1) if i == a else st.integers(v - 1, v) for i, (n, v) in enumerate(zip(shape, x)))
    )
    volume = draw(st.dictionaries(near, st.sampled_from([-2, -1, 1, 2]), min_size=1, max_size=4))
    # a base at v - 1 = -1 names the cube at n - 1: the torus's periodicity, stated here
    cubes = {cx.cell_index(3, [v % n for v, n in zip(base, shape)], (0, 1, 2)): k for base, k in volume.items()}
    bump = boundary(Chain(cx, 3, cubes))
    return GroupoidRep(fiber), charged, defect, strip, bump


def _sweep(rep, charged, defect, filling):
    move = DefectMove(defect, Cobordism(filling.complex, filling, defect.support))
    return apply_defect(defect, charged, move, rep)


@SETTINGS
@given(sweeps())
def test_a_sweep_acts_through_its_homology_class(case):
    # the claim: a filling moved by a boundary crosses the charged loop as
    # often, so the outcome is the same to the bit
    rep, charged, defect, filling, bump = case
    outcome = _sweep(rep, charged, defect, filling)
    moved = _sweep(rep, charged, defect, filling + bump)
    if intersection_number(charged.support, filling) == 0:
        assert outcome is charged and moved is charged
        return
    assert moved.degree == outcome.degree
    assert np.array_equal(moved.observable, outcome.observable)


@SETTINGS
@given(sweeps())
def test_a_sweep_acts_by_the_group_element_once_per_crossing(case):
    # the degree flips by the parity of the crossings (a random element is
    # never the identity), and the observable moves by rep(g)^n, with g's
    # inverse for a negative n
    rep, charged, defect, filling, _ = case
    n = intersection_number(charged.support, filling)
    outcome = _sweep(rep, charged, defect, filling)
    assert outcome.degree == charged.degree ^ (n % 2)
    expected = np.linalg.matrix_power(rep.matrix(defect.g), n) @ charged.observable
    scale = max(1.0, float(np.max(np.abs(charged.observable))))
    assert np.max(np.abs(outcome.observable - expected)) <= 1e-12 * scale


@st.composite
def closed_fields(draw):
    """(field, cycle, moved cycle): a closed 1-form that is not exact, d of a
    random integer 0-cochain plus a nonzero integer constant on the edges of
    each axis; an integer sum of named loops; and that sum plus the boundary
    of a random integer 2-chain."""
    cx, _, fiber, rng = _torus(draw)
    k = fiber.components
    potential = Cochain(cx, 0, fiber, rng.integers(-4, 5, (cx.cell_count(0), k)).astype(fiber.dtype))
    values = d(potential).values.copy()
    every = np.indices(cx.shape).reshape(3, -1)
    for axis in range(3):
        values[cx.cell_indices(1, (axis,), every)] += rng.choice([-3, -2, -1, 1, 2, 3], k)
    loops = draw(st.lists(st.tuples(st.integers(0, 2), st.sampled_from([-2, -1, 1, 2])), min_size=1, max_size=3))
    cycle = Chain(cx, 1, {})
    for axis, coef in loops:
        cycle = cycle + coef * _loop(cx, axis, [int(rng.integers(n)) for n in cx.shape])
    faces = rng.integers(cx.cell_count(2), size=draw(st.integers(1, 8)))
    surface = Chain(cx, 2, {int(f): int(rng.choice([-2, -1, 1, 2])) for f in faces})
    return Cochain(cx, 1, fiber, values), cycle, cycle + boundary(surface)


@SETTINGS
@given(closed_fields())
def test_a_closed_field_is_observed_through_the_homology_of_the_support(case):
    # Stokes on integer data: the boundary adds the integral of d psi = 0
    # over the surface, exactly, so the observable is the same to the bit
    field, cycle, moved = case
    before = ChargedOperator(cycle, field, 0).observable
    assert np.array_equal(ChargedOperator(moved, field, 0).observable, before)


@st.composite
def two_sweeps(draw):
    """(rep, charged operator, g, h, defect loop, filling): the filling sweeps
    the defect loop across the charged loop once, with crossing number 1;
    g and h come from a non-abelian group, so their order shows."""
    cx, algebra, fiber, rng = _torus(draw, NON_ABELIAN)
    g, h = random_group_element(algebra, rng), random_group_element(algebra, rng)
    field = Cochain.random_gaussian(cx, 1, fiber, rng)
    a, b, c = draw(st.permutations(range(3)))
    y = [draw(st.integers(0, n - 1)) for n in cx.shape]
    x = [draw(st.integers(0, n - 1)) for n in cx.shape]
    strip = _strip(cx, b, c, y, 1)
    # of the two charged loops on either side of y[c], one crosses the strip
    for step in (0, 1):
        x[c] = (y[c] + step) % cx.shape[c]
        n = intersection_number(_loop(cx, a, x), strip)
        if n:
            break
    assert n in (-1, 1)
    charged = ChargedOperator(_loop(cx, a, x), field, draw(st.integers(0, 1)))
    return GroupoidRep(fiber), charged, g, h, _loop(cx, b, y), n * strip


@SETTINGS
@given(two_sweeps())
def test_two_sweeps_act_by_their_graded_composite_in_order(case):
    # g then h acts by compose(h, g), which lands where the sweeps do; the
    # order shows, since random elements do not commute
    rep, charged, g, h, loop, strip = case
    s = charged.degree

    def twice(first, second):
        once = _sweep(rep, charged, DefectOperator(first, s, loop), strip)
        return _sweep(rep, once, DefectOperator(second, s ^ 1, loop), strip)

    composite = compose(primitive_morphism(h, s ^ 1), primitive_morphism(g, s))
    expected = apply_fiber_map(charged.field, rep.matrix(composite.g)).values
    scale = max(1.0, float(np.max(np.abs(charged.field.values))))
    g_then_h, h_then_g = twice(g, h), twice(h, g)
    assert g_then_h.degree == composite.target
    assert np.max(np.abs(g_then_h.field.values - expected)) <= 1e-12 * scale
    assert np.max(np.abs(h_then_g.field.values - expected)) > 1e-6 * scale


def _random_chain(cx, degree, rng):
    cells = rng.integers(cx.cell_count(degree), size=int(rng.integers(1, 9)))
    return Chain(cx, degree, cells=cells, coefs=rng.choice([-2, -1, 1, 2], cells.size))


@st.composite
def charge_cases(draw):
    """(field, eom support, the same plus a boundary, trivial support, region):
    a Gaussian p-form on a d-torus; a random (p+1)-chain and that chain plus
    the boundary of a random (p+2)-chain (nothing added where p + 2 > d); a
    (d-p-1)-cycle, which is a random 0-chain, a named loop or a named plane;
    and a random (d-p)-chain for the cycle to sweep."""
    dim, p = draw(st.sampled_from([(2, 0), (3, 0), (3, 1), (3, 2)]))
    shape = draw(st.lists(st.integers(3, 6), min_size=dim, max_size=dim))
    spacing = [2.0 ** e for e in draw(st.lists(st.integers(-3, 3), min_size=dim, max_size=dim))]
    cx = CubicalComplex(shape, spacing=spacing)
    _, fiber = draw(st.sampled_from(FIBERS))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    field = Cochain.random_gaussian(cx, p, fiber, rng)
    sigma = _random_chain(cx, p + 1, rng)
    moved = sigma + boundary(_random_chain(cx, p + 2, rng)) if p + 2 <= dim else sigma
    m = dim - p - 1
    point = [draw(st.integers(0, n - 1)) for n in shape]
    axis = draw(st.integers(0, dim - 1))
    if m == 0:
        cycle = _random_chain(cx, 0, rng)
    elif m == 1:
        cycle = _loop(cx, axis, point)
    else:
        cycle = named_cycle(cx, {"kind": "plane", "normal": axis, "offset": point[axis]})
    return field, sigma, moved, cycle, _random_chain(cx, m + 1, rng)


@SETTINGS
@given(charge_cases())
def test_an_eom_charge_depends_only_on_the_homology_class_of_its_support(case):
    # integrate(d psi, boundary(tau)) = integrate(d d psi, tau) = 0, to the
    # check command's default tolerance
    field, sigma, moved, _, _ = case
    q0, q1 = charge_eom(field, sigma), charge_eom(field, moved)
    assert np.max(np.abs(q1 - q0)) <= 1e-12 * (1.0 + np.max(np.abs(q0)))


@SETTINGS
@given(charge_cases())
def test_a_trivial_charge_moves_by_the_residual_flux_through_the_swept_region(case):
    # Stokes for star d psi: the charge over cycle + boundary(region) less the
    # charge over cycle is the integral of d star d psi over region
    field, _, _, cycle, region = case
    delta = charge_trivial(field, cycle + boundary(region)) - charge_trivial(field, cycle)
    flux = integrate(eom_residual(field), region)
    assert np.max(np.abs(delta - flux)) <= 1e-12 * (1.0 + np.max(np.abs(flux)))
