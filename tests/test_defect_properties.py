"""The defect layer's claim as properties: a group element acts on a charged
operator through the homology of the sweep alone.

A strategy draws a 3-dimensional torus with 3-6 cells per axis and
power-of-two spacings, a fiber with its group (so(3) and u(2) on algebra
fibers, U(2) on the complex pair), a random group element and field, a
charged loop, a defect loop of the same degree tag and the strip that
sweeps the defect loop one step along the third axis, with a coefficient
in {-1, 1, 2}.  The charged loop is placed so that about half the sweeps
cross it.  The crossing count n is `intersection_number` of the charged
loop and the filling.
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
    boundary,
    intersection_number,
    named_cycle,
    so3,
    u2,
)
from formlab.algebra import random_group_element

# (algebra the group elements come from, fiber the field takes values in)
FIBERS = [(so3(), algebra_fiber(so3())), (u2(), algebra_fiber(u2())), (u2(), COMPLEX_PAIR)]
SETTINGS = settings(max_examples=100, derandomize=True, database=None, deadline=None)


def _loop(cx, axis, point):
    offsets = [x for i, x in enumerate(point) if i != axis]
    return named_cycle(cx, {"kind": "loop", "axis": axis, "offsets": offsets})


@st.composite
def sweeps(draw):
    """(rep, charged operator, defect, filling, bump): the filling sweeps the
    defect's loop, and bump is the boundary of a random 3-chain."""
    shape = draw(st.lists(st.integers(3, 6), min_size=3, max_size=3))
    spacing = [2.0 ** e for e in draw(st.lists(st.integers(-3, 3), min_size=3, max_size=3))]
    cx = CubicalComplex(shape, spacing=spacing)
    algebra, fiber = draw(st.sampled_from(FIBERS))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
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
    coef = draw(st.sampled_from([-1, 1, 2]))
    axes = sorted((b, c))
    strip = {}
    for j in range(shape[b]):
        base = list(y)
        base[b] = j
        strip[cx.cell_index(2, base, axes)] = coef
    # cubes along the charged loop, whose boundaries it crosses
    near = st.tuples(
        *(st.integers(0, n - 1) if i == a else st.integers(v - 1, v) for i, (n, v) in enumerate(zip(shape, x)))
    )
    volume = draw(st.dictionaries(near, st.sampled_from([-2, -1, 1, 2]), min_size=1, max_size=4))
    cubes = {cx.cell_index(3, base, (0, 1, 2)): k for base, k in volume.items()}
    bump = boundary(Chain(cx, 3, cubes))
    return GroupoidRep(fiber), charged, defect, Chain(cx, 2, strip), bump


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
