"""The exact identities of the calculus as properties, and call-order
independence of the results that `d` and `star` keep on a cochain.

A strategy draws a torus or box of dimension 1-3 with 2-5 cells per axis,
spacings that are powers of two (so every star factor and volume, and every
product of them with small integers, is exact in floating point), a degree
and a fiber (real, complex pair, so(3), u(2)).  On integer data the
identities hold to the bit; star star = (-1)^(p(d-p)) holds to 1e-14 on
Gaussian data.  The last property runs the field-level operations in a
drawn order on one cochain and requires the bits that each gives on a fresh
copy of it.
"""

import random

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from formlab import (
    COMPLEX_PAIR,
    REAL_SCALAR,
    Chain,
    Cochain,
    ConservationReport,
    CubicalComplex,
    action,
    algebra_fiber,
    boundary,
    charge_eom,
    charge_trivial,
    conservation_report,
    d,
    eom_residual,
    inner,
    integrate,
    intersection_number,
    max_norm,
    named_cycle,
    so3,
    star,
    u2,
)

FIBERS = [REAL_SCALAR, COMPLEX_PAIR, algebra_fiber(so3()), algebra_fiber(u2())]
SETTINGS = settings(max_examples=100, derandomize=True, database=None, deadline=None)


@st.composite
def cases(draw):
    """(complex, degree, fiber, rng): the degree lies in 0..d."""
    dim = draw(st.integers(1, 3))
    shape = draw(st.lists(st.integers(2, 5), min_size=dim, max_size=dim))
    spacing = [2.0 ** e for e in draw(st.lists(st.integers(-3, 3), min_size=dim, max_size=dim))]
    cx = CubicalComplex(shape, spacing=spacing, topology=draw(st.sampled_from(["torus", "box"])))
    p = draw(st.integers(0, dim))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return cx, p, draw(st.sampled_from(FIBERS)), rng


def _integers(cx, p, fiber, rng) -> Cochain:
    shape = (cx.cell_count(p), fiber.components)
    values = rng.integers(-5, 6, shape).astype(fiber.dtype)
    if fiber.is_complex:
        values += 1j * rng.integers(-5, 6, shape)
    return Cochain(cx, p, fiber, values)


def _chain(cx, p, rng) -> Chain:
    n = cx.cell_count(p)
    return Chain(cx, p, cells=np.arange(n), coefs=rng.integers(-3, 4, n))


@SETTINGS
@given(cases())
def test_boundary_and_coboundary_square_to_zero(case):
    cx, _, fiber, rng = case
    for p in range(2, cx.d + 1):
        assert not boundary(boundary(_chain(cx, p, rng)))
    for p in range(cx.d - 1):
        assert max_norm(d(d(_integers(cx, p, fiber, rng)))) == 0.0


@SETTINGS
@given(cases())
def test_star_star_is_the_sign(case):
    cx, p, fiber, rng = case
    if cx.topology != "torus":
        return
    psi = Cochain.random_gaussian(cx, p, fiber, rng)
    sign = (-1) ** (p * (cx.d - p))
    assert max_norm(star(star(psi)) - sign * psi) <= 1e-14


@SETTINGS
@given(cases())
def test_stokes_is_exact(case):
    cx, p, fiber, rng = case
    if p == cx.d:
        return
    psi = _integers(cx, p, fiber, rng)
    sigma = _chain(cx, p + 1, rng)
    assert np.array_equal(integrate(d(psi), sigma), integrate(psi, boundary(sigma)))


@SETTINGS
@given(cases())
def test_intersection_numbers_ignore_boundaries(case):
    # a loop and a plane of a torus cross once when the loop's axis is the
    # plane's normal; moving either by a boundary keeps the signed count
    cx, _, _, rng = case
    if cx.topology != "torus":
        return
    axis, normal = rng.integers(cx.d), rng.integers(cx.d)
    loop = named_cycle(cx, {"kind": "loop", "axis": axis, "offsets": [0] * (cx.d - 1)})
    plane = named_cycle(cx, {"kind": "plane", "normal": normal, "offset": 0})
    moved_plane = plane + boundary(_chain(cx, cx.d, rng))
    moved_loop = loop + boundary(_chain(cx, 2, rng)) if cx.d >= 2 else loop
    expected = intersection_number(loop, plane)
    assert abs(expected) == (axis == normal)
    assert intersection_number(moved_loop, plane) == expected
    assert intersection_number(loop, moved_plane) == expected
    assert intersection_number(moved_loop, moved_plane) == expected


@SETTINGS
@given(cases())
def test_transposed_coboundary_is_the_adjoint_of_d(case):
    # inner(d psi, phi) = sum conj(psi) d^T(w phi), w the dual volumes of
    # degree p + 1: exact on integer values and power-of-two spacings
    cx, p, fiber, rng = case
    if p == cx.d:
        return
    psi, phi = _integers(cx, p, fiber, rng), _integers(cx, p + 1, fiber, rng)
    w = cx.star_factors(p + 1) * cx.primal_volumes(p + 1)
    weighted = (w[:, None] * phi.values).view(np.float64)
    adjoint = np.zeros((cx.cell_count(p), weighted.shape[1]))
    cx.add_coboundary(p, weighted.T, adjoint.T, transpose=True)
    adjoint = adjoint.view(fiber.dtype)
    expected = np.sum(np.conj(psi.values) * adjoint)
    assert inner(d(psi), phi) == (complex(expected) if fiber.is_complex else float(expected))


def _bits(value) -> bytes:
    if isinstance(value, Cochain):
        return value.values.tobytes()
    if isinstance(value, dict):
        return b"".join(k.encode() + _bits(v) for k, v in value.items())
    if isinstance(value, ConservationReport):
        fields = (value.trivial_current_norm, value.dynamical_current_norm, value.action)
        return repr(fields).encode() + _bits(value.charges)
    return np.asarray(value).tobytes()


def _operations(psi) -> dict:
    """The field-level operations that apply to psi, by name."""
    cx, p = psi.complex, psi.degree
    ops = {"report": conservation_report}
    if p < cx.d:
        ops.update(d=d, action=action)
    if p < cx.d and cx.topology == "torus":
        ops.update(star_d=lambda f: star(d(f)), eom_residual=eom_residual)
        # a (p+1)-chain and a (d-p-1)-cycle: one cell, and the boundary of one
        cell, cycle = Chain(cx, p + 1, [0], [1]), boundary(Chain(cx, cx.d - p, [0], [1]))
        ops.update(
            charge_eom=lambda f: charge_eom(f, cell), charge_trivial=lambda f: charge_trivial(f, cycle)
        )
    return ops


def _charged_case(fiber):
    return CubicalComplex([3, 4, 2], spacing=[2.0, 0.5, 1.0]), 1, fiber, np.random.default_rng(7)


@SETTINGS
@given(cases(), st.randoms(use_true_random=False))
@example(_charged_case(FIBERS[2]), random.Random(1))
@example(_charged_case(COMPLEX_PAIR), random.Random(2))
def test_kept_results_do_not_depend_on_call_order(case, order):
    cx, p, fiber, rng = case
    psi = Cochain.random_gaussian(cx, p, fiber, rng)
    ops = _operations(psi)
    names = sorted(ops)
    order.shuffle(names)
    for name in names:
        fresh = Cochain(cx, p, fiber, psi.values)
        assert _bits(ops[name](psi)) == _bits(ops[name](fresh)), (name, names)
    # and once more, with every result already kept on psi
    for name in names:
        assert _bits(ops[name](psi)) == _bits(ops[name](Cochain(cx, p, fiber, psi.values))), name
