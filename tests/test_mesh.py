from itertools import combinations

import numpy as np
import pytest

from formlab import (
    Cell,
    Chain,
    Cobordism,
    ConfigError,
    CubicalComplex,
    DomainError,
    boundary,
    intersection_number,
    is_cycle,
    named_cycle,
)
from formlab.mesh import perm_sign


def expected_cell_count(shape, topology, p):
    # independent combinatorial count: sum over axis subsets of size p of
    # per-axis extents (box vertices get +1 on unselected axes)
    d = len(shape)
    total = 0
    for axes in combinations(range(d), p):
        n = 1
        for i in range(d):
            n *= shape[i] + (0 if (i in axes or topology == "torus") else 1)
        total += n
    return total


def random_chain(cx, degree, rng, cells=4):
    n = cx.cell_count(degree)
    picks = rng.choice(n, size=min(cells, n), replace=False)
    return Chain(cx, degree, {int(i): int(rng.integers(-3, 4)) or 1 for i in picks})


def geometric_intersection(a, b):
    """Float-geometry crossing count: embed cells as coordinate intervals,
    shift the second chain by +1/2 along every axis, and count transversal
    overlaps modulo the torus periods."""
    cx = a.complex
    assert cx.topology == "torus"

    def in_open_unit_interval_mod(x, lo, period):
        t = (x - lo) % period
        return 0.0 < t < 1.0

    total = 0
    for ia, ca in a.coeffs.items():
        cell_a = cx.cell(a.degree, ia)
        for ib, cb in b.coeffs.items():
            cell_b = cx.cell(b.degree, ib)
            if set(cell_a.axes) & set(cell_b.axes):
                continue
            hit = True
            for ax in range(cx.d):
                if ax in cell_a.axes:
                    # a spans (base, base+1); shifted b sits at base_b + 0.5
                    if not in_open_unit_interval_mod(
                        cell_b.base[ax] + 0.5, cell_a.base[ax], cx.shape[ax]
                    ):
                        hit = False
                        break
                else:
                    # shifted b spans (base_b + 0.5, base_b + 1.5); a sits at base_a
                    if not in_open_unit_interval_mod(
                        cell_a.base[ax], cell_b.base[ax] + 0.5, cx.shape[ax]
                    ):
                        hit = False
                        break
            if hit:
                comp = tuple(i for i in range(cx.d) if i not in cell_a.axes)
                total += ca * cb * perm_sign(list(cell_a.axes) + list(comp))
    return total


@pytest.mark.parametrize(
    "shape,topology,counts",
    [
        ((4, 4), "torus", [16, 32, 16]),
        ((2, 2, 2), "torus", [8, 24, 24, 8]),
        ((2, 2), "box", [9, 12, 4]),
    ],
)
def test_cell_counts(shape, topology, counts):
    cx = CubicalComplex(shape, topology=topology)
    for p, expected in enumerate(counts):
        assert cx.cell_count(p) == expected
        assert cx.cell_count(p) == expected_cell_count(shape, topology, p)


@pytest.mark.parametrize(
    "shape,topology",
    [((2, 2), "torus"), ((3, 3), "torus"), ((2, 2, 2), "torus"),
     ((4, 4, 4), "torus"), ((4, 3), "torus"), ((3, 3), "box"), ((2, 3, 4), "box")],
)
def test_boundary_squared_is_zero(shape, topology):
    cx = CubicalComplex(shape, topology=topology)
    for p in range(2, cx.d + 1):
        product = cx.boundary_matrix(p - 1) @ cx.boundary_matrix(p)
        assert product.nnz == 0


@pytest.mark.parametrize("topology", ["torus", "box"])
@pytest.mark.parametrize("shape", [(2,), (3, 2), (2, 3, 4), (3, 3, 3)])
def test_boundary_matrix_matches_defining_formula(shape, topology):
    # the module docstring's formula, evaluated cell by cell:
    # boundary (v, A) = sum_t (-1)^(t-1) [ (v + e_{a_t}, A \ a_t) - (v, A \ a_t) ]
    cx = CubicalComplex(shape, topology=topology)
    for p in range(1, cx.d + 1):
        entries = {}
        for j in range(cx.cell_count(p)):
            cell = cx.cell(p, j)
            for t, a in enumerate(cell.axes):
                sub = tuple(x for x in cell.axes if x != a)
                sign = (-1) ** t
                upper = list(cell.base)
                upper[a] += 1
                for face, s in ((upper, sign), (cell.base, -sign)):
                    key = (cx.cell_index(p - 1, face, sub), j)
                    entries[key] = entries.get(key, 0) + s
        keys = sorted(k for k, v in entries.items() if v)
        indptr = np.zeros(cx.cell_count(p - 1) + 1, dtype=np.int64)
        np.add.at(indptr, [r + 1 for r, _ in keys], 1)
        mat = cx.boundary_matrix(p)
        assert mat.shape == (cx.cell_count(p - 1), cx.cell_count(p))
        assert mat.dtype == np.int64
        assert np.array_equal(mat.indptr, np.cumsum(indptr))
        assert np.array_equal(mat.indices, [c for _, c in keys])
        assert np.array_equal(mat.data, [entries[k] for k in keys])


def test_cell_index_roundtrip():
    cx = CubicalComplex([3, 4], topology="box")
    for p in range(cx.d + 1):
        for i in range(cx.cell_count(p)):
            assert cx.index_of(cx.cell(p, i)) == i


def test_unit_square_boundary_orientation():
    cx = CubicalComplex([3, 3])
    square = Chain(cx, 2, {cx.cell_index(2, (0, 0), (0, 1)): 1})
    expected = Chain(
        cx,
        1,
        {
            cx.cell_index(1, (1, 0), (1,)): 1,
            cx.cell_index(1, (0, 0), (1,)): -1,
            cx.cell_index(1, (0, 1), (0,)): -1,
            cx.cell_index(1, (0, 0), (0,)): 1,
        },
    )
    assert boundary(square) == expected
    assert is_cycle(boundary(square))


def test_wraparound_loop_is_a_cycle():
    cx = CubicalComplex([4, 4, 4])
    loop = named_cycle(cx, {"kind": "loop", "axis": 0, "offsets": [0, 0]})
    assert len(loop.coeffs) == 4
    assert not boundary(loop)


def test_boundary_squared_on_random_chains(rng):
    cx = CubicalComplex([3, 3, 3])
    for _ in range(100):
        c = random_chain(cx, 2, rng, cells=6)
        assert not boundary(boundary(c))


def test_is_cycle_cases(rng):
    cx = CubicalComplex([3, 3, 3])
    plane = named_cycle(cx, {"kind": "plane", "normal": 2, "offset": 1})
    assert is_cycle(plane)
    edge = Chain(cx, 1, {cx.cell_index(1, (0, 0, 0), (0,)): 1})
    assert not is_cycle(edge)
    volume = random_chain(cx, 3, rng)
    assert is_cycle(boundary(volume))


def test_named_cycles():
    cx = CubicalComplex([4, 4, 4])
    loop = named_cycle(cx, {"kind": "loop", "axis": 0, "offsets": [0, 0]})
    assert len(loop.coeffs) == 4 and is_cycle(loop)
    plane = named_cycle(cx, {"kind": "plane", "normal": 2, "offset": 1})
    assert len(plane.coeffs) == 16 and is_cycle(plane)
    single = named_cycle(
        cx,
        {"kind": "cells", "items": [{"degree": 2, "base": [0, 0, 0], "axes": [0, 1], "coef": 1}]},
    )
    assert not is_cycle(single)


def test_named_cycle_rejects_bad_specs():
    cx = CubicalComplex([4, 4, 4])
    with pytest.raises(ConfigError):
        named_cycle(cx, {"kind": "loop", "axis": 0, "offsets": [0, 9]})
    with pytest.raises(ConfigError):
        named_cycle(cx, {"kind": "plane", "normal": 5, "offset": 0})
    with pytest.raises(ConfigError):
        named_cycle(cx, {"kind": "frob"})


def test_intersection_loop_against_planes():
    cx = CubicalComplex([4, 4, 4])
    loop = named_cycle(cx, {"kind": "loop", "axis": 0, "offsets": [1, 2]})
    plane_x = named_cycle(cx, {"kind": "plane", "normal": 0, "offset": 3})
    plane_y = named_cycle(cx, {"kind": "plane", "normal": 1, "offset": 0})
    assert intersection_number(loop, plane_x) == 1
    assert intersection_number(loop, plane_y) == 0
    assert geometric_intersection(loop, plane_x) == 1
    assert geometric_intersection(loop, plane_y) == 0


def test_intersection_requires_complementary_degrees():
    cx = CubicalComplex([3, 3, 3])
    loop = named_cycle(cx, {"kind": "loop", "axis": 0, "offsets": [0, 0]})
    with pytest.raises(DomainError):
        intersection_number(loop, loop)


def test_intersection_matches_geometric_oracle(rng):
    for shape in [(3, 3), (2, 2, 2), (4, 3, 2)]:
        cx = CubicalComplex(shape)
        for p in range(cx.d + 1):
            for _ in range(25):
                a = random_chain(cx, p, rng)
                b = random_chain(cx, cx.d - p, rng)
                assert intersection_number(a, b) == geometric_intersection(a, b)


def test_intersection_is_bilinear(rng):
    cx = CubicalComplex([3, 3, 3])
    a1, a2 = random_chain(cx, 1, rng), random_chain(cx, 1, rng)
    b = random_chain(cx, 2, rng)
    assert intersection_number(a1 + a2, b) == intersection_number(a1, b) + intersection_number(a2, b)
    assert intersection_number(3 * a1, b) == 3 * intersection_number(a1, b)


def all_basis_loops(cx):
    loops = []
    for axis in range(cx.d):
        others = [i for i in range(cx.d) if i != axis]
        for offsets in np.ndindex(*[cx.shape[i] for i in others]):
            loops.append(
                named_cycle(cx, {"kind": "loop", "axis": axis, "offsets": list(offsets)})
            )
    return loops


def test_intersection_vanishes_on_boundaries_exhaustively():
    # every single-cell boundary against every plane/loop cycle, both orders
    cx = CubicalComplex([3, 3])
    cycles1 = all_basis_loops(cx)
    for j in range(cx.cell_count(2)):
        a = boundary(Chain(cx, 2, {j: 1}))
        for z in cycles1:
            assert intersection_number(a, z) == 0
            assert intersection_number(z, a) == 0

    cx = CubicalComplex([2, 2, 2])
    planes = [
        named_cycle(cx, {"kind": "plane", "normal": n, "offset": o})
        for n in range(3)
        for o in range(2)
    ]
    for j in range(cx.cell_count(2)):
        a = boundary(Chain(cx, 2, {j: 1}))  # 1-boundary vs 2-cycles
        for z in planes:
            assert intersection_number(a, z) == 0
    loops = all_basis_loops(cx)
    for j in range(cx.cell_count(3)):
        a = boundary(Chain(cx, 3, {j: 1}))  # 2-boundary vs 1-cycles
        for z in loops:
            assert intersection_number(z, a) == 0


def test_intersection_homology_invariance_random(rng):
    cx = CubicalComplex([3, 3, 3])
    for _ in range(50):
        a = boundary(random_chain(cx, 2, rng))
        z = named_cycle(cx, {"kind": "plane", "normal": int(rng.integers(3)), "offset": 0})
        assert intersection_number(a, z) == 0


def test_cobordism_validation():
    cx = CubicalComplex([4, 4, 4])
    source = named_cycle(cx, {"kind": "loop", "axis": 0, "offsets": [0, 0]})
    filling = Chain(cx, 2, {cx.cell_index(2, (i, 0, 0), (0, 1)): -1 for i in range(4)})
    cob = Cobordism(cx, filling, source)
    assert boundary(cob.filling) == cob.target - cob.source
    assert is_cycle(cob.target)
    wrong_target = named_cycle(cx, {"kind": "loop", "axis": 0, "offsets": [2, 2]})
    with pytest.raises(DomainError):
        Cobordism(cx, filling, source, wrong_target)


def test_cell_and_chain_validation():
    cx = CubicalComplex([3, 3])
    with pytest.raises(DomainError):
        Cell(2, (0, 0), (1, 0))  # axes not increasing
    with pytest.raises(DomainError):
        Chain(cx, 1, {999: 1})
    with pytest.raises(DomainError):
        boundary(Chain(cx, 0, {0: 1}))
    with pytest.raises(ConfigError):
        CubicalComplex([1, 4])
    with pytest.raises(ConfigError):
        CubicalComplex([4, 4], spacing=[1.0, -2.0])


def test_torus_base_reduction():
    cx = CubicalComplex([3, 3])
    assert cx.cell_index(0, (4, -1), ()) == cx.cell_index(0, (1, 2), ())
    box = CubicalComplex([3, 3], topology="box")
    with pytest.raises(DomainError):
        box.cell_index(0, (4, 0), ())
