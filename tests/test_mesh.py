import math
from itertools import combinations, product

import numpy as np
import pytest

from formlab import (
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
from formlab.checks import run_checks
from formlab.config import scenario_from_dict
from formlab.mesh import perm_sign

from helpers import cells_in_order


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

    cells_a, cells_b = cells_in_order(cx, a.degree), cells_in_order(cx, b.degree)
    total = 0
    for ia, ca in zip(a.cells.tolist(), a.coefs.tolist()):
        base_a, axes_a = cells_a[ia]
        for ib, cb in zip(b.cells.tolist(), b.coefs.tolist()):
            base_b, axes_b = cells_b[ib]
            if set(axes_a) & set(axes_b):
                continue
            hit = True
            for ax in range(cx.d):
                if ax in axes_a:
                    # a spans (base, base+1); shifted b sits at base_b + 0.5
                    if not in_open_unit_interval_mod(
                        base_b[ax] + 0.5, base_a[ax], cx.shape[ax]
                    ):
                        hit = False
                        break
                else:
                    # shifted b spans (base_b + 0.5, base_b + 1.5); a sits at base_a
                    if not in_open_unit_interval_mod(
                        base_a[ax], base_b[ax] + 0.5, cx.shape[ax]
                    ):
                        hit = False
                        break
            if hit:
                comp = tuple(i for i in range(cx.d) if i not in axes_a)
                total += ca * cb * perm_sign(list(axes_a) + list(comp))
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
        for j, (base, axes) in enumerate(cells_in_order(cx, p)):
            for t, a in enumerate(axes):
                sub = tuple(x for x in axes if x != a)
                sign = (-1) ** t
                upper = list(base)
                upper[a] += 1
                if topology == "torus":  # the upper face of the last slab sits at base 0
                    upper[a] %= shape[a]
                for face, s in ((upper, sign), (base, -sign)):
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


@pytest.mark.parametrize("topology", ["torus", "box"])
@pytest.mark.parametrize("shape", [(2,), (3, 2), (2, 3, 4), (3, 3, 3)])
def test_face_table_columns_ascend_and_coboundary_csr_is_canonical(shape, topology):
    # the shift terms fill the face table in place, with no sort: each
    # column must come out ascending, so the CSR rows read from it need none
    cx = CubicalComplex(shape, topology=topology)
    for p in range(1, cx.d + 1):
        faces, _ = cx.face_table(p)
        assert (np.diff(faces, axis=0) > 0).all()
        assert cx.coboundary_matrix(p - 1).has_canonical_format


def test_size_rule_refuses_a_mesh_no_array_can_hold():
    # numpy holds at most 2**63 - 1 bytes in one array, and the widest array
    # per cell is 48 bytes; neither mesh here allocates anything
    most = (2**63 - 1) // 48
    assert CubicalComplex([most]).cell_count(1) == most
    with pytest.raises(ConfigError, match="too many to hold"):
        CubicalComplex([most + 1])
    with pytest.raises(ConfigError, match="too many to hold"):
        CubicalComplex([10**6] * 3)


def test_cell_index_roundtrip():
    # the block layout: each degree's axis subsets in order, each block a
    # contiguous index range holding its cells in C order of their bases
    for shape in [(2,), (3,), (2, 2), (3, 4), (2, 2, 2), (2, 3, 2)]:
        for topology in ("torus", "box"):
            cx = CubicalComplex(shape, topology=topology)
            for p in range(cx.d + 1):
                for i, (base, axes) in enumerate(cells_in_order(cx, p)):
                    assert cx.cell_index(p, base, axes) == i
                    assert cx.cell_indices(p, axes, np.array(base)[:, None]).tolist() == [i]
                    # a base out of range, of any size, is an error on a torus
                    # as on a box, whose blocks are one cell longer off their axes
                    for axis, n in enumerate(shape):
                        edge = n + (topology == "box" and axis not in axes)
                        for b in (-1, edge, edge + n, 2**63, 10**30, -(10**30)):
                            wrong = [*base[:axis], b, *base[axis + 1 :]]
                            with pytest.raises(DomainError, match="outside the block"):
                                cx.cell_index(p, wrong, axes)
                assert cx.axis_subsets(p) == tuple(combinations(range(cx.d), p))
                start = 0
                for axes in cx.axis_subsets(p):
                    bases = cx.block_bases(p, axes)
                    cells = cx.cell_indices(p, axes, bases)
                    assert np.array_equal(cells, np.arange(start, start + bases.shape[1]))
                    extents = [n + (topology == "box" and i not in axes) for i, n in enumerate(shape)]
                    assert np.array_equal(bases, np.indices(extents).reshape(cx.d, -1))
                    start += bases.shape[1]
                assert start == cx.cell_count(p)


@pytest.mark.parametrize("topology", ["torus", "box"])
@pytest.mark.parametrize("spacing", [[0.5], [0.5, 4.0], [0.5, 4.0, 0.25]])
def test_metric_is_the_per_cell_product_of_spacings(spacing, topology):
    # powers of two, so that every product and quotient is exact
    cx = CubicalComplex([2] * len(spacing), spacing=spacing, topology=topology)
    for p in range(cx.d + 1):
        cells = cells_in_order(cx, p)
        volume = [math.prod(spacing[a] for a in axes) for _, axes in cells]
        dual = [math.prod(h for a, h in enumerate(spacing) if a not in axes) for _, axes in cells]
        assert np.array_equal(cx.primal_volumes(p), volume)
        assert np.array_equal(cx.star_factors(p), np.divide(dual, volume))


@pytest.mark.parametrize("topology", ["torus", "box"])
@pytest.mark.parametrize("shape", [(2,), (3, 2), (2, 3, 4), (3, 3, 3)])
def test_boundary_matches_boundary_matrix(shape, topology, rng):
    # the chain boundary works on the face table; the CSR matrix is the oracle
    cx = CubicalComplex(shape, topology=topology)
    for p in range(1, cx.d + 1):
        n = cx.cell_count(p)
        for cells in (0, 1, 5, n):
            chain = random_chain(cx, p, rng, cells=cells)
            vec = np.zeros(n, dtype=np.int64)
            vec[chain.cells] = chain.coefs
            expected = cx.boundary_matrix(p) @ vec
            got = np.zeros(cx.cell_count(p - 1), dtype=np.int64)
            image = boundary(chain)
            got[image.cells] = image.coefs
            assert image.degree == p - 1
            assert np.array_equal(got, expected)
            assert 0 not in image.coefs


@pytest.mark.parametrize("degree", [1, 2, 3])
def test_boundary_squared_check_catches_a_flipped_sign(monkeypatch, degree):
    original = CubicalComplex.face_table

    def flipped(self, p):
        faces, signs = original(self, p)
        if p == degree:
            signs = signs.copy()
            signs[0, 0] *= -1
        return faces, signs

    monkeypatch.setattr(CubicalComplex, "face_table", flipped)
    scenario = scenario_from_dict({"mesh": {"shape": [3, 3, 3]}})
    (result,) = run_checks(scenario, ["boundary_squared_zero"])
    assert result.lhs > 0
    assert not result.passed


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
    assert len(loop.cells) == 4
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
    assert len(loop.cells) == 4 and is_cycle(loop)
    plane = named_cycle(cx, {"kind": "plane", "normal": 2, "offset": 1})
    assert len(plane.cells) == 16 and is_cycle(plane)
    single = named_cycle(
        cx,
        {"kind": "cells", "items": [{"degree": 2, "base": [0, 0, 0], "axes": [0, 1], "coef": 1}]},
    )
    assert not is_cycle(single)


@pytest.mark.parametrize("shape", [(3, 3), (2, 3, 4), (4, 4, 4)])
def test_named_cycles_match_per_cell_construction(shape):
    cx = CubicalComplex(shape)
    for axis in range(cx.d):
        others = [i for i in range(cx.d) if i != axis]
        for offsets in np.ndindex(*[shape[i] for i in others]):
            expected = {}
            for k in range(shape[axis]):
                base = [0] * cx.d
                base[axis] = k
                for i, off in zip(others, offsets):
                    base[i] = off
                expected[cx.cell_index(1, base, (axis,))] = 1
            spec = {"kind": "loop", "axis": axis, "offsets": list(offsets)}
            assert named_cycle(cx, spec) == Chain(cx, 1, expected)
        for offset in range(shape[axis]):
            ranges = [(offset,) if i == axis else range(n) for i, n in enumerate(shape)]
            expected = {cx.cell_index(cx.d - 1, base, tuple(others)): 1 for base in product(*ranges)}
            spec = {"kind": "plane", "normal": axis, "offset": offset}
            assert named_cycle(cx, spec) == Chain(cx, cx.d - 1, expected)


def test_named_cycle_rejects_bad_specs():
    cx = CubicalComplex([4, 4, 4])
    with pytest.raises(ConfigError):
        named_cycle(cx, {"kind": "loop", "axis": 0, "offsets": [0, 9]})
    with pytest.raises(ConfigError):
        named_cycle(cx, {"kind": "plane", "normal": 5, "offset": 0})
    with pytest.raises(ConfigError):
        named_cycle(cx, {"kind": "frob"})


def test_named_offsets_follow_the_block_table():
    # a box has n + 1 vertex layers along an axis, a torus n: offset n is a
    # loop or plane on a box alone, and n + 1 and -1 name no cells on either
    n = 4
    box = CubicalComplex([n] * 3, topology="box")
    plane = named_cycle(box, {"kind": "plane", "normal": 2, "offset": n})
    items = [{"degree": 2, "base": [i, j, n], "axes": [0, 1]} for i in range(n) for j in range(n)]
    assert plane == named_cycle(box, {"kind": "cells", "items": items})
    loop = named_cycle(box, {"kind": "loop", "axis": 0, "offsets": [n, 1]})
    items = [{"degree": 1, "base": [i, n, 1], "axes": [0]} for i in range(n)]
    assert loop == named_cycle(box, {"kind": "cells", "items": items})
    for cx in (box, CubicalComplex([n] * 3)):
        bad = [n + 1, -1, 10**30] + ([n] if cx.topology == "torus" else [])
        for off in bad:
            with pytest.raises(ConfigError, match="out of range"):
                named_cycle(cx, {"kind": "plane", "normal": 2, "offset": off})
            with pytest.raises(ConfigError, match="out of range"):
                named_cycle(cx, {"kind": "loop", "axis": 0, "offsets": [0, off]})


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


def crossing_rule_intersection(a, b):
    """The module docstring's crossing rule, cell by cell: the p-cell (v, A)
    crosses the complementary cell based at v - 1 on the axes outside A, if
    the mesh has that cell, with the permutation sign of (A, comp A)."""
    cx = a.complex
    total = 0
    coeffs_b = dict(zip(b.cells.tolist(), b.coefs.tolist()))
    cells_a = cells_in_order(cx, a.degree)
    for ia, ca in zip(a.cells.tolist(), a.coefs.tolist()):
        base, axes = cells_a[ia]
        comp = tuple(i for i in range(cx.d) if i not in axes)
        base = [v - 1 if i in comp else v for i, v in enumerate(base)]
        if cx.topology == "torus":  # base -1 names the cell at n - 1
            base = [v % n for v, n in zip(base, cx.shape)]
        try:
            ib = cx.cell_index(b.degree, base, comp)  # range-checked on a box
        except DomainError:
            continue
        total += ca * coeffs_b.get(ib, 0) * perm_sign(axes + comp)
    return total


@pytest.mark.parametrize("shape", [(3,), (3, 2), (2, 3, 4)])
def test_intersection_on_a_box_matches_crossing_rule(shape, rng):
    cx = CubicalComplex(shape, topology="box")
    for p in range(cx.d + 1):
        q = cx.d - p
        everywhere = random_chain(cx, q, rng, cells=cx.cell_count(q))
        if p < cx.d:
            # cells on a lower face: their crossing partner lies outside the box
            lower = [
                j for j, (base, axes) in enumerate(cells_in_order(cx, p))
                if any(base[i] == 0 for i in range(cx.d) if i not in axes)
            ]
            assert lower
            on_faces = Chain(cx, p, {j: 1 for j in lower})
            assert intersection_number(on_faces, everywhere) == 0
            assert crossing_rule_intersection(on_faces, everywhere) == 0
        for cells in (1, 4, cx.cell_count(p)):
            for _ in range(10):
                a = random_chain(cx, p, rng, cells=cells)
                for b in (random_chain(cx, q, rng, cells=cells), everywhere):
                    assert intersection_number(a, b) == crossing_rule_intersection(a, b)
                # coefficients up to 2**53 are allowed: products must not wrap
                big = intersection_number(2**53 * a, -(2**53) * everywhere)
                assert big == -(2**106) * crossing_rule_intersection(a, everywhere)


@pytest.mark.parametrize("topology", ["torus", "box"])
def test_intersection_matches_the_crossing_rule_on_random_chains(topology, rng):
    for shape in [(5,), (4, 6), (3, 4, 5)]:
        cx = CubicalComplex(shape, topology=topology)
        for p in range(cx.d + 1):
            q = cx.d - p
            for cells in (1, 7, cx.cell_count(p)):
                a = random_chain(cx, p, rng, cells=cells)
                assert intersection_number(a, Chain(cx, q)) == 0
                for _ in range(5):
                    b = random_chain(cx, q, rng, cells=cells)
                    assert intersection_number(a, b) == crossing_rule_intersection(a, b)


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
    # the filling must be one degree above the source
    wrong_degree = Chain(cx, 3, {cx.cell_index(3, (0, 0, 0), (0, 1, 2)): 1})
    with pytest.raises(DomainError):
        Cobordism(cx, wrong_degree, source)


def test_cell_and_chain_validation():
    cx = CubicalComplex([3, 3])
    with pytest.raises(DomainError):
        Chain(cx, 1, {999: 1})
    with pytest.raises(DomainError):
        boundary(Chain(cx, 0, {0: 1}))
    with pytest.raises(ConfigError):
        CubicalComplex([1, 4])
    with pytest.raises(ConfigError):
        CubicalComplex([4, 4], spacing=[1.0, -2.0])
    for shape in ([3.7, 3], [3, True]):  # not truncated or read as 1
        with pytest.raises(ConfigError):
            CubicalComplex(shape)
    for spacing in ([1.0, float("nan")], [1.0, True], "x", [[1.0], 1.0]):
        with pytest.raises(ConfigError):
            CubicalComplex([4, 4], spacing=spacing)
    # every cell volume and star factor must be finite and positive: an
    # infinite spacing, a product that overflows (1e200^3) or one that
    # underflows to zero (1e-200^3) is an error
    for spacing in (float("inf"), [1.0, 1.0, float("inf")], 1e200, 1e-200, [1e160, 1e-160, 1.0]):
        with pytest.raises(ConfigError):
            CubicalComplex([4, 4, 4], spacing=spacing)
    assert CubicalComplex([3.0, np.int64(4)]).shape == (3, 4)


def test_torus_base_reduction():
    # a caller reduces a torus base itself: cell_index takes a base in its
    # block on a torus as on a box, and wraps none
    cx = CubicalComplex([3, 3])
    assert cx.cell_index(0, (4 % 3, -1 % 3), ()) == cx.cell_index(0, (1, 2), ()) == 5
    for base in ((4, -1), (4, 0), (0, -1)):
        with pytest.raises(DomainError, match="outside the block"):
            cx.cell_index(0, base, ())
    box = CubicalComplex([3, 3], topology="box")
    with pytest.raises(DomainError):
        box.cell_index(0, (4, 0), ())
    for base in ((1,), (1, 2, 0)):  # one coordinate per axis, no more, no fewer
        with pytest.raises(DomainError):
            cx.cell_index(1, base, (0,))
    # the one block lookup rejects an axis subset that names no block
    with pytest.raises(DomainError, match="no degree-1 cells with axes"):
        cx.cell_index(1, (0, 0), (2,))
    with pytest.raises(DomainError, match="no degree-1 cells with axes"):
        cx.block_bases(1, [2])


def test_chain_normal_form():
    cx = CubicalComplex([3, 3])
    chain = Chain(cx, 1, cells=[5, 2, 5, 7, 2, 0], coefs=[1, 4, 2, 3, -4, 0])
    assert chain.cells.tolist() == [5, 7]  # sorted, distinct, repeats added up
    assert chain.coefs.tolist() == [3, 3]  # zero sums dropped
    assert chain == Chain(cx, 1, {7: 3, 5: 3})
    for arr in (chain.cells, chain.coefs):
        assert arr.dtype == np.int64
        with pytest.raises(ValueError):
            arr[0] = 1  # read-only
    empty = chain - chain
    assert not empty and empty.cells.size == 0 and empty.coefs.size == 0
    assert empty == Chain(cx, 1, {})
    spec = {"kind": "cells", "items": [{"degree": 1, "base": [0, 0], "axes": [0], "coef": c} for c in (1, 2)]}
    assert named_cycle(cx, spec) == Chain(cx, 1, {0: 3})
    for cells in ([18], [-1], [2**63]):
        with pytest.raises(DomainError):
            Chain(cx, 1, cells=cells, coefs=[1])
    # coefficients within +-(2**63 - 1), as given and after +, - and *
    top = 2**63 - 1
    assert (-1 * Chain(cx, 1, {0: top})).coefs.tolist() == [-top]
    big = Chain(cx, 1, {0: 2**62})
    overflows = [
        lambda: big + big,
        lambda: big - (-1 * big),
        lambda: 2 * big,
        lambda: -(2**62) * Chain(cx, 1, {0: 3}),
        lambda: Chain(cx, 1, {0: 2**63}),
        lambda: Chain(cx, 1, {0: -(2**63)}),
        lambda: Chain(cx, 1, cells=[0] * 4, coefs=[2**62] * 4),  # 2**64 wraps to 0 in int64
    ]
    for make in overflows:
        with pytest.raises(DomainError):
            make()
    # a scalar multiple takes an integer, never a truncated float
    assert (np.int64(3) * chain).coefs.tolist() == [9, 9]
    for scalar in (2.5, 2.0, np.float64(2.0)):
        with pytest.raises(TypeError):
            scalar * chain
