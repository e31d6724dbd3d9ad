import math
import re

import numpy as np
import pytest

from formlab import (
    COMPLEX_PAIR,
    Chain,
    Cochain,
    CubicalComplex,
    DomainError,
    GeometryError,
    REAL_SCALAR,
    SolverError,
    action,
    algebra_fiber,
    apply_fiber_map,
    boundary,
    d,
    eom_residual,
    inner,
    integrate,
    max_norm,
    named_cycle,
    so3,
    solve_free,
    star,
    u2,
)
from formlab import calculus
from formlab.algebra import adjoint_matrix, random_group_element

SO3_FIBER = algebra_fiber(so3())


def free_field_operator(cx, degree):
    """The solver's operator as a CSR matrix: K = C^T diag(star factors) C
    with C the degree -> degree+1 coboundary matrix."""
    import scipy.sparse as sp

    c = cx.coboundary_matrix(degree)
    return (c.T @ sp.diags(cx.star_factors(degree + 1)) @ c).tocsr()


def integer_cochain(cx, p, rng, fiber=REAL_SCALAR):
    vals = rng.integers(-5, 6, size=(cx.cell_count(p), fiber.components)).astype(float)
    return Cochain(cx, p, fiber, vals)


def closed_cochain(cx, fiber, rng):
    # exact piece plus a per-axis harmonic (class-constant) piece
    psi = d(Cochain.random_gaussian(cx, 0, fiber, rng))
    vals = np.array(psi.values)
    for axis in range(cx.d):
        shift = rng.standard_normal(fiber.components)
        if fiber.is_complex:
            shift = shift + 1j * rng.standard_normal(fiber.components)
        for i in range(cx.cell_count(1)):
            if cx.cell(1, i).axes == (axis,):
                vals[i] += shift
    return Cochain(cx, 1, fiber, vals)


def test_d_of_constant_vanishes(torus444):
    psi = Cochain(torus444, 0, REAL_SCALAR, np.full(torus444.cell_count(0), 3.25))
    assert max_norm(d(psi)) == 0.0


def test_dd_vanishes_exactly_on_integer_cochains(rng):
    for shape in [(4,), (3, 3), (2, 2, 2)]:
        cx = CubicalComplex(shape)
        for p in range(cx.d - 1):
            psi = integer_cochain(cx, p, rng)
            assert max_norm(d(d(psi))) == 0.0


@pytest.mark.parametrize("topology", ["torus", "box"])
@pytest.mark.parametrize("shape", [(3,), (3, 2), (2, 3, 4)])
@pytest.mark.parametrize("fiber", [REAL_SCALAR, COMPLEX_PAIR, algebra_fiber(so3())], ids=["real", "complex_pair", "so3"])
def test_d_matches_coboundary_matrix_bit_for_bit(shape, topology, fiber):
    # d works on the face table; the CSR product is the oracle, compared by
    # bit pattern so that signed zeros count.  Where two nans meet, which one
    # an addition keeps is up to the compiled code (scipy's own product keeps
    # a different one for one component than for several), and reports and
    # CSVs print every nan alike, so nans are compared by position only.
    cx = CubicalComplex(shape, topology=topology)
    rng = np.random.default_rng(11)
    special = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 1.0, -2.5])

    def draw(size):
        return np.where(rng.random(size) < 0.5, rng.choice(special, size), rng.standard_normal(size))

    for p in range(cx.d):
        size = (cx.cell_count(p), fiber.components)
        vals = draw(size)
        if fiber.is_complex:
            vals = vals.astype(np.complex128)
            vals.imag = draw(size)
        psi = Cochain(cx, p, fiber, vals)
        mat = cx.coboundary_matrix(p)
        if fiber.is_complex:
            # d maps the real and imaginary parts apart, so the oracle does too
            expected = np.empty((mat.shape[0], fiber.components), dtype=np.complex128)
            expected.real = mat @ psi.values.real
            expected.imag = mat @ psi.values.imag
        else:
            expected = mat @ psi.values
        got = d(psi).values
        assert got.shape == expected.shape and got.dtype == expected.dtype
        got, expected = got.view(np.float64), expected.view(np.float64)
        assert np.array_equal(np.isnan(got), np.isnan(expected))
        assert np.array_equal(
            np.where(np.isnan(got), 0.0, got).view(np.int64),
            np.where(np.isnan(expected), 0.0, expected).view(np.int64),
        )


@pytest.mark.parametrize("topology", ["torus", "box"])
@pytest.mark.parametrize("shape", [(2,), (3,), (3, 2), (2, 3, 4)])
def test_coboundary_transpose_matches_csr_transpose(shape, topology, rng):
    # integer values make every sum exact, whatever order the terms come in;
    # out starts non-zero, as add_coboundary adds to it
    cx = CubicalComplex(shape, topology=topology)
    for p in range(cx.d):
        y = rng.integers(-9, 10, size=(2, cx.cell_count(p + 1))).astype(float)
        start = rng.integers(-9, 10, size=(2, cx.cell_count(p))).astype(float)
        out = start.copy()
        cx.add_coboundary(p, y, out, transpose=True)
        assert np.array_equal(out, start + (cx.coboundary_matrix(p).T @ y.T).T)


def _random_values(fiber, count, rng):
    values = rng.standard_normal((count, fiber.components))
    if fiber.is_complex:
        values = values + 1j * rng.standard_normal(values.shape)
    return values


def _random_fixed(cx, fiber, rng, count=5, degree=1):
    picks = rng.choice(cx.cell_count(degree), size=count, replace=False)
    return dict(zip(picks.tolist(), _random_values(fiber, count, rng)))


@pytest.mark.parametrize("fiber", [algebra_fiber(so3()), algebra_fiber(u2()), COMPLEX_PAIR], ids=["so3", "u2", "complex_pair"])
def test_solve_matches_each_component_row_solved_alone(fiber, rng):
    # each real or imaginary part of each component, solved alone as a real
    # scalar, gives the same values
    cx = CubicalComplex([4, 4, 3])
    fixed = _random_fixed(cx, fiber, rng)
    together = solve_free(cx, fiber, 1, fixed=fixed).values
    for comp in range(fiber.components):
        for part in (np.real, np.imag) if fiber.is_complex else (np.real,):
            alone = solve_free(cx, REAL_SCALAR, 1, fixed={i: part(v[comp]) for i, v in fixed.items()})
            assert np.max(np.abs(part(together[:, comp]) - alone.values[:, 0])) <= 1e-14


def test_solve_keeps_a_zero_component_row_exactly_zero(rng):
    cx = CubicalComplex([4, 4, 4])
    fixed = _random_fixed(cx, COMPLEX_PAIR, rng)
    for v in fixed.values():
        v[1] = v[1].real  # the imaginary part of component 1 is zero throughout
    psi = solve_free(cx, COMPLEX_PAIR, 1, fixed=fixed)
    assert not psi.values[:, 1].imag.view(np.int64).any()  # +0.0 everywhere
    assert np.max(np.abs(psi.values[:, 1].real)) > 0 and np.max(np.abs(psi.values[:, 0])) > 0
    assert max_norm(eom_residual(psi)) <= 1e-10


def test_each_component_row_solved_alone_matches_bit_for_bit(rng):
    # the zero row takes no step, the tiny dipole row stops after about a
    # dozen steps and the random row some steps later; each row must match
    # its own real scalar solve bit for bit.  The second mesh has more cells
    # than numpy's 8192-entry buffer, past which a sum that spanned several
    # rows would round a row differently from its own sum
    for shape in ([4, 4, 3], [21, 20, 20]):
        cx = CubicalComplex(shape)
        fixed = {i: np.zeros(3) for i in (0, 17, 33)}
        src = np.zeros((cx.cell_count(0), 3))
        src[:, 0] = rng.standard_normal(cx.cell_count(0))
        src[5, 1], src[6, 1] = 1e-158, -1e-158
        together = solve_free(cx, SO3_FIBER, 0, fixed=fixed, source=Cochain(cx, 0, SO3_FIBER, src)).values
        assert np.max(np.abs(together[:, 0])) > 0 and np.max(np.abs(together[:, 1])) > 0
        for comp in range(3):
            alone = solve_free(
                cx, REAL_SCALAR, 0,
                fixed={i: v[comp] for i, v in fixed.items()},
                source=Cochain(cx, 0, REAL_SCALAR, src[:, comp]),
            ).values[:, 0]
            assert np.array_equal(alone.view(np.int64), together[:, comp].view(np.int64)), (shape, comp)


# -- the torus preconditioner -------------------------------------------------

# unequal spacings per axis and one torus with equal spacings: the
# preconditioner reads K's symbol off the operator, so it is exact at every
# degree on each of them
PRECONDITIONED_TORI = [
    ((9,), (0.7,)),
    ((7, 5), (1.0, 0.5)),
    ((4, 3, 5), (1.0, 0.5, 2.0)),
    ((6, 5, 4), (0.5, 0.5, 0.5)),
    ((4, 6, 5), (0.8, 1.3, 1.1)),
]


def _operator_and_preconditioner(cx, p):
    """Dense K and the solver's M with no fixed cells, which is K^+; K is
    the CSR operator, not the solver's shift maps."""
    apply_m = calculus._torus_preconditioner(cx, p, np.empty(0, dtype=np.int64))
    m = np.array([apply_m(e) for e in np.eye(cx.cell_count(p))])  # row i is M e_i
    return free_field_operator(cx, p).toarray(), m


@pytest.mark.parametrize("shape,spacing", PRECONDITIONED_TORI)
def test_torus_preconditioner_is_the_pseudo_inverse(shape, spacing):
    cx = CubicalComplex(shape, spacing=spacing)
    for p in range(cx.d):
        k, m = _operator_and_preconditioner(cx, p)
        k_scale, m_scale = np.abs(k).max(), np.abs(m).max()
        # the four Penrose conditions, which make M the pseudo-inverse K^+;
        # symmetric M and K M keep PCG on the minimum-norm solution
        assert np.abs(k @ m @ k - k).max() <= 1e-12 * k_scale, p
        assert np.abs(m @ k @ m - m).max() <= 1e-12 * m_scale, p
        assert np.abs(m - m.T).max() <= 1e-12 * m_scale, p
        assert np.abs(k @ m - (k @ m).T).max() <= 1e-12, p


def test_torus_preconditioner_steps_aside_where_the_operator_is_ill_conditioned():
    # At spacing [1e-8, 1, 1] the star factors of degrees 1 and 2 span 1e16,
    # so max|K(xi)| max|K^+(xi)| passes 1e12 for 0- and 1-forms and those
    # solves run plain CG.  The 3-cells have one star factor, so 2-forms keep
    # the preconditioner, as does any uniform scale: K^+ scales inversely
    no_fixed = np.empty(0, dtype=np.int64)
    cx = CubicalComplex([4, 4, 4], spacing=[1e-8, 1.0, 1.0])
    assert [calculus._torus_preconditioner(cx, p, no_fixed) is None for p in range(3)] == [True, True, False]
    for spacing in (1e155, 1e-155):
        assert calculus._torus_preconditioner(CubicalComplex([8], spacing=spacing), 0, no_fixed) is not None


def _fixed_and_source(cx, fiber, p, rng):
    """Three fixed cells and a source K phi, which every restriction of K
    to free cells can match."""
    fixed = _random_fixed(cx, fiber, rng, 3, p)
    phi = _random_values(fiber, cx.cell_count(p), rng)
    k = free_field_operator(cx, p)
    rho = k @ phi.real + (1j * (k @ phi.imag) if fiber.is_complex else 0)
    return fixed, Cochain(cx, p, fiber, rho)


@pytest.mark.parametrize("shape,spacing", [((12,), (0.7,)), ((7, 5), (1.0, 0.5)), ((4, 3, 5), (1.0, 0.5, 2.0)), ((4, 3, 5), None)])
@pytest.mark.parametrize("fiber", [REAL_SCALAR, COMPLEX_PAIR, SO3_FIBER], ids=["real", "complex_pair", "so3"])
def test_preconditioned_solve_matches_plain_cg(shape, spacing, fiber, rng, monkeypatch):
    cx = CubicalComplex(shape, spacing=spacing)
    for p in range(cx.d):
        fixed, source = _fixed_and_source(cx, fiber, p, rng)
        for kwargs in ({"fixed": fixed}, {"fixed": fixed, "source": source}):
            preconditioned = solve_free(cx, fiber, p, **kwargs).values
            with monkeypatch.context() as m:
                m.setattr(calculus, "_torus_preconditioner", lambda *args: None)
                plain = solve_free(cx, fiber, p, **kwargs).values
            assert np.max(np.abs(preconditioned - plain)) <= 1e-12 * (1 + np.max(np.abs(plain))), p


def test_box_solve_runs_plain_cg(rng, monkeypatch):
    # a box has no circulant structure, so it keeps the unpreconditioned
    # iteration, operation for operation
    passed = []
    solve = calculus._cg

    def spy(*args):
        passed.append(args[4])
        return solve(*args)

    monkeypatch.setattr(calculus, "_cg", spy)
    monkeypatch.setattr(calculus, "_torus_preconditioner", None)  # never called
    cx = CubicalComplex([4, 3, 5], topology="box")
    for p in range(3):
        psi = solve_free(cx, COMPLEX_PAIR, p, fixed=_random_fixed(cx, COMPLEX_PAIR, rng, 3, p))
        assert max_norm(psi) > 0
    # one call per row: the real and imaginary part of both components
    assert passed == [None] * 12


def test_torus_solve_steps_stay_within_twice_the_fixed_cells(rng, monkeypatch):
    # With M = E_f K^+ E_f, M K_ff is the identity plus a term of rank at
    # most 2k on range(K_ff), for k fixed cells, so in exact arithmetic PCG
    # stops within 2k + 1 steps at any spacings.  The stop test asks for a
    # relative residual of 1e-13, near rounding, and where two eigenvalues
    # nearly coincide (for p = 0 with one fixed vertex: 1 and 1 - 1/N on N
    # vertices) that costs one more step, so the bound allows one step of
    # slack.  Each step applies M once; every row's count is checked.
    #
    # In floating point PCG loses conjugacy to an outlying eigenvalue of
    # M K_ff once it has found it, and finds it again (with full
    # reorthogonalization the anisotropic cases below take 2k + 1 steps).
    # For p >= 1 the 2k outliers spread with the star factors W of degree
    # p + 1: at 6^3 with 4 fixed 1-cells they lie in 0.09-1.2 where W is one
    # number and in 0.013-8.2 at spacing [0.3, 1.7, 2.9], where W spans 93.
    # So each outlier may be found once more per decade that W spans:
    # 2k ceil(log10(max W / min W)) steps more.  For p = 0 the kernel is the
    # constants and only k + 1 outliers arise, which leaves 2k + 2 room for
    # the repeats at any spacings here.
    steps = []
    solve = calculus._cg

    def counting(apply_k, b, tol, maxiter, apply_m):
        def counted(r):
            steps[-1] += 1
            return apply_m(r)

        steps.append(0)
        return solve(apply_k, b, tol, maxiter, counted)

    monkeypatch.setattr(calculus, "_cg", counting)
    cases = [((16,), None, 0), ((9, 7), (1.0, 0.5), 0), ((9, 7), None, 1), ((10, 9, 8), (0.5, 1.5, 1.0), 0)]
    cases += [((10, 9, 8), spacing, p) for spacing in (None, 0.5) for p in (1, 2)]
    cases += [((9, 7), (1.0, 0.5), 1)]
    cases += [((10, 9, 8), spacing, p) for spacing in ((1.0, 1.0, 2.0), (0.5, 1.5, 1.0), (0.3, 1.7, 2.9)) for p in (1, 2)]
    for shape, spacing, p in cases:
        cx = CubicalComplex(shape, spacing=spacing)
        w = cx.star_factors(p + 1)
        decades = math.ceil(math.log10(w.max() / w.min())) if p else 0
        for k in (1, 4, 10):
            for fiber in (SO3_FIBER, COMPLEX_PAIR):
                steps.clear()
                solve_free(cx, fiber, p, fixed=_random_fixed(cx, fiber, rng, k, p))
                bound = 2 * k * (1 + decades) + 2
                assert len(steps) == 4 - (fiber is SO3_FIBER), (shape, spacing, p, k, fiber.kind)
                assert all(0 < count <= bound for count in steps), (shape, spacing, p, k, fiber.kind, steps)


def test_d_on_circle_with_wraparound():
    # f(i) = i on a [4] torus: interior differences 1, wrap edge 0 - 3 = -3
    cx = CubicalComplex([4])
    psi = Cochain(cx, 0, REAL_SCALAR, np.array([0.0, 1.0, 2.0, 3.0]))
    dpsi = d(psi)
    values = [dpsi.values[cx.cell_index(1, (i,), (0,))][0] for i in range(4)]
    assert values == [1.0, 1.0, 1.0, 1.0 - 4.0]


def test_d_rejects_top_degree(torus444):
    psi = Cochain.zeros(torus444, 3, REAL_SCALAR)
    with pytest.raises(DomainError):
        d(psi)


def test_star_double_identity(rng):
    for shape in [(4,), (4, 4), (3, 4, 5)]:
        cx = CubicalComplex(shape)
        for p in range(cx.d + 1):
            psi = Cochain.random_gaussian(cx, p, REAL_SCALAR, rng)
            sign = (-1) ** (p * (cx.d - p))
            assert max_norm(star(star(psi)) - sign * psi) <= 1e-14


def test_star_factors_unit_metric(torus444):
    for p in range(4):
        assert np.all(torus444.star_factors(p) == 1.0)
    # values move by the index bijection, up to the orientation sign
    psi = Cochain.random_gaussian(torus444, 1, REAL_SCALAR, np.random.default_rng(5))
    starred = star(psi)
    signs, idx = torus444.complement(1, 0)
    assert np.array_equal(starred.values[idx], signs[:, None] * psi.values)


def test_star_factors_anisotropic():
    cx = CubicalComplex([2, 2, 2], spacing=[2.0, 1.0, 1.0])
    factors = cx.star_factors(1)
    by_axis = {}
    for i in range(cx.cell_count(1)):
        by_axis.setdefault(cx.cell(1, i).axes[0], set()).add(factors[i])
    assert by_axis[0] == {0.5}  # (1*1)/2 for an x-edge
    assert by_axis[1] == {2.0}
    assert by_axis[2] == {2.0}


def test_star_factors_strictly_positive():
    for cx in (CubicalComplex([3, 4], spacing=[0.25, 7.0]), CubicalComplex([2, 3, 4])):
        for p in range(cx.d + 1):
            assert np.all(cx.star_factors(p) > 0)


def test_star_requires_torus():
    box = CubicalComplex([3, 3], topology="box")
    with pytest.raises(GeometryError):
        star(Cochain.zeros(box, 1, REAL_SCALAR))


def test_integrate_empty_chain(torus444):
    psi = Cochain.random_gaussian(torus444, 1, SO3_FIBER, np.random.default_rng(1))
    value = integrate(psi, Chain(torus444, 1, {}))
    assert np.array_equal(value, np.zeros(3))


def test_integrate_constant_over_loop(torus444):
    loop = named_cycle(torus444, {"kind": "loop", "axis": 1, "offsets": [0, 2]})
    vals = np.zeros((torus444.cell_count(1), 3))
    v = np.array([0.5, -1.0, 2.0])
    vals[loop.cells] = v
    psi = Cochain(torus444, 1, SO3_FIBER, vals)
    assert np.allclose(integrate(psi, loop), 4 * v, atol=0)


def loop_integral(psi, chain):
    # the reference: one term at a time, left to right from +0.0
    acc = np.zeros(psi.fiber.components, dtype=psi.fiber.dtype)
    for idx, coef in zip(chain.cells.tolist(), chain.coefs.tolist()):
        acc = acc + coef * psi.values[idx]
    return acc


def float_bits(value):
    """The bits of each float part, every NaN as one NaN: IEEE 754 leaves the
    sign and payload of a NaN result open, and numpy's complex add loops pick
    the NaN of different operands."""
    parts = np.asarray(value).reshape(-1).view(np.float64)
    return np.where(np.isnan(parts), np.nan, parts).view(np.int64)


@pytest.mark.parametrize("fiber", [REAL_SCALAR, COMPLEX_PAIR, SO3_FIBER], ids=["real", "complex_pair", "so3"])
def test_integrate_matches_the_left_to_right_loop_bit_for_bit(fiber, rng, torus444):
    cx = torus444
    specials = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324, 1e-310, -2.5e-308])
    for p in range(cx.d + 1):
        n = cx.cell_count(p)
        for trial in range(40):
            # magnitudes spread over many decades, so the summation order shows
            parts = [
                rng.standard_normal((n, fiber.components)) * 10.0 ** rng.integers(-20, 20, (n, fiber.components))
                for _ in range(2 if fiber.is_complex else 1)
            ]
            for part in parts:
                spots = rng.random(part.shape) < 0.05
                part[spots] = rng.choice(specials, size=int(spots.sum()))
            if trial % 10 == 0:
                parts = [np.full_like(part, -0.0) for part in parts]
            values = np.zeros((n, fiber.components), dtype=fiber.dtype)
            values.real = parts[0]
            if fiber.is_complex:
                values.imag = parts[1]
            psi = Cochain(cx, p, fiber, values)
            cells = rng.choice(n, size=int(rng.integers(0, n + 1)), replace=False)
            top = 2**53 if trial % 4 == 0 else 4
            coefs = rng.integers(-top, top + 1, size=cells.size)
            chain = Chain(cx, p, cells=cells, coefs=coefs)
            with np.errstate(all="ignore"):  # inf * 0 and overflow are part of the test
                got = np.asarray(integrate(psi, chain), dtype=fiber.dtype)
                expected = loop_integral(psi, chain)
            assert np.array_equal(float_bits(got), float_bits(expected))


def test_discrete_stokes(rng, torus444):
    for p in range(3):
        for _ in range(100):
            psi = Cochain.random_gaussian(torus444, p, REAL_SCALAR, rng)
            n = torus444.cell_count(p + 1)
            picks = rng.choice(n, size=6, replace=False)
            sigma = Chain(torus444, p + 1, {int(i): int(rng.integers(1, 4)) for i in picks})
            lhs = integrate(d(psi), sigma)
            rhs = integrate(psi, boundary(sigma))
            assert abs(lhs - rhs) <= 1e-12 * (1 + abs(lhs))


def test_integrate_degree_mismatch(torus444):
    psi = Cochain.zeros(torus444, 1, REAL_SCALAR)
    with pytest.raises(DomainError):
        integrate(psi, Chain(torus444, 2, {}))


def test_inner_positive_definite(rng, torus444):
    for fiber in (REAL_SCALAR, SO3_FIBER, COMPLEX_PAIR):
        psi = Cochain.random_gaussian(torus444, 1, fiber, rng)
        value = inner(psi, psi)
        value = value.real if isinstance(value, complex) else value
        assert value > 0
        zero = Cochain.zeros(torus444, 1, fiber)
        assert inner(zero, zero) == 0


def test_inner_single_cell_normalization():
    cx = CubicalComplex([3, 3, 3])
    vals = np.zeros((cx.cell_count(1), 3))
    vals[cx.cell_index(1, (0, 0, 0), (0,))] = [1.0, 0.0, 0.0]  # the first generator
    psi = Cochain(cx, 1, SO3_FIBER, vals)
    assert inner(psi, psi) == pytest.approx(1.0, abs=1e-15)


def test_inner_symmetry(rng, torus444):
    for _ in range(100):
        a = Cochain.random_gaussian(torus444, 1, SO3_FIBER, rng)
        b = Cochain.random_gaussian(torus444, 1, SO3_FIBER, rng)
        assert abs(inner(a, b) - inner(b, a)) <= 1e-12
    a = Cochain.random_gaussian(torus444, 1, COMPLEX_PAIR, rng)
    b = Cochain.random_gaussian(torus444, 1, COMPLEX_PAIR, rng)
    assert abs(inner(a, b) - np.conj(inner(b, a))) <= 1e-12


def test_action_basics(rng, torus444):
    const = Cochain(torus444, 0, REAL_SCALAR, np.full(torus444.cell_count(0), 2.0))
    assert action(const) == 0.0
    psi = Cochain.random_gaussian(torus444, 1, SO3_FIBER, rng)
    assert action(2 * psi) == pytest.approx(4 * action(psi), rel=1e-13)


def test_action_global_invariance(rng, torus444):
    psi = Cochain.random_gaussian(torus444, 1, SO3_FIBER, rng)
    s0 = action(psi)
    for _ in range(10):
        g = random_group_element(so3(), rng)
        s1 = action(apply_fiber_map(psi, adjoint_matrix(g, so3())))
        assert abs(s1 - s0) <= 1e-12 * (1 + abs(s0))
    chi = Cochain.random_gaussian(torus444, 1, algebra_fiber(u2()), rng)
    u0 = action(chi)
    for _ in range(10):
        g = random_group_element(u2(), rng)
        u1 = action(apply_fiber_map(chi, adjoint_matrix(g, u2())))
        assert abs(u1 - u0) <= 1e-12 * (1 + abs(u0))
    phi = Cochain.random_gaussian(torus444, 1, COMPLEX_PAIR, rng)
    t0 = action(phi)
    for _ in range(10):
        g = random_group_element(u2(), rng)
        t1 = action(apply_fiber_map(phi, g.matrix))
        assert abs(t1 - t0) <= 1e-12 * (1 + abs(t0))


def test_eom_residual_constant_and_harmonic(torus444):
    const = Cochain(torus444, 1, REAL_SCALAR, np.full((torus444.cell_count(1), 1), 1.5))
    assert max_norm(eom_residual(const)) == 0.0
    # translation-invariant 1-cochain: one value per parallel cell class
    vals = np.zeros((torus444.cell_count(1), 1))
    per_axis = [2.0, -0.75, 0.3]
    for i in range(torus444.cell_count(1)):
        vals[i] = per_axis[torus444.cell(1, i).axes[0]]
    harmonic = Cochain(torus444, 1, REAL_SCALAR, vals)
    assert max_norm(eom_residual(harmonic)) <= 1e-13


def test_solver_zero_problem_returns_zero(torus444):
    psi = solve_free(torus444, SO3_FIBER, 1)
    assert max_norm(psi) == 0.0


def test_solver_line_interpolation():
    # hand-solved tridiagonal system: fixing the ends of a 4-segment path to
    # 0 and 1 forces the linear profile 0, 1/4, 1/2, 3/4, 1
    cx = CubicalComplex([4], topology="box")
    psi = solve_free(cx, REAL_SCALAR, 0, fixed={
        cx.cell_index(0, (0,), ()): 0.0,
        cx.cell_index(0, (4,), ()): 1.0,
    })
    values = psi.values[:, 0]
    assert np.allclose(values, [0.0, 0.25, 0.5, 0.75, 1.0], atol=1e-12)


def test_solver_dirichlet_reaches_tolerance(rng):
    cx = CubicalComplex([6, 6, 6])
    for fiber in (SO3_FIBER, COMPLEX_PAIR):
        target = closed_cochain(cx, fiber, rng)
        picks = rng.choice(cx.cell_count(1), size=10, replace=False)
        fixed = {int(i): target.values[i] for i in picks}
        psi = solve_free(cx, fiber, 1, fixed=fixed)
        assert max_norm(eom_residual(psi)) <= 1e-10
        for i, v in fixed.items():
            assert np.array_equal(psi.values[i], v)


def test_solver_compatible_source(rng):
    cx = CubicalComplex([4, 4, 4])
    k = free_field_operator(cx, 1)
    phi = rng.standard_normal(cx.cell_count(1))
    rho = Cochain(cx, 1, REAL_SCALAR, (k @ phi).reshape(-1, 1))
    psi = solve_free(cx, REAL_SCALAR, 1, source=rho)
    residual = np.max(np.abs(k @ psi.values[:, 0] - rho.values[:, 0]))
    assert residual <= 1e-10 * (1 + np.max(np.abs(rho.values)))


def test_solver_incompatible_source():
    cx = CubicalComplex([2, 2, 2])
    ones = Cochain(cx, 0, REAL_SCALAR, np.ones(cx.cell_count(0)))
    with pytest.raises(SolverError):
        solve_free(cx, REAL_SCALAR, 0, source=ones)
    # a closed 1-form source is orthogonal to the range of the operator
    vals = np.zeros((cx.cell_count(1), 1))
    for i in range(cx.cell_count(1)):
        if cx.cell(1, i).axes == (0,):
            vals[i] = 1.0
    closed = Cochain(cx, 1, REAL_SCALAR, vals)
    with pytest.raises(SolverError):
        solve_free(cx, REAL_SCALAR, 1, source=closed)


@pytest.mark.parametrize("shape,spacing", [((6, 6, 6), None), ((8, 8, 8), None), ((12, 12, 12), None), ((8, 8, 8), (1.0, 1.0, 2.0))])
@pytest.mark.parametrize("fixed", [False, True], ids=["nothing_fixed", "two_fixed"])
def test_incompatible_source_stops_early_with_its_residual(shape, spacing, fixed):
    # A one-edge source is not in K's range.  Its part in K's kernel (closed
    # forms) stays in the residual, and PCG leaves only that part within a few
    # steps; the residual then lies in M's null space, the row stops, and the
    # residual test fails it with that part, about 1/3 at the edge (the exact
    # part d Delta^-1 d^T e of a unit edge e is about 1/d there), instead of
    # running all 10n + 100 steps or breaking down into nan
    cx = CubicalComplex(shape, spacing=spacing)
    src = np.zeros((cx.cell_count(1), 3))
    src[cx.cell_index(1, (1, 1, 1), (0,))] = [1.0, 0.0, 0.0]
    cells = {cx.cell_index(1, (0, 0, 0), (0,)): [1.0, 0.0, 0.0], cx.cell_index(1, (3, 3, 3), (1,)): [0.0, 0.5, -0.5]}
    with pytest.raises(SolverError) as failure:
        solve_free(cx, SO3_FIBER, 1, fixed=cells if fixed else None, source=Cochain(cx, 1, SO3_FIBER, src))
    residual, steps = re.search(r"residual (\S+) .*, (\d+) iterations", str(failure.value)).groups()
    assert abs(float(residual) - 1 / 3) <= 0.01 and int(steps) <= 10, str(failure.value)


@pytest.mark.parametrize("spacing", [1e20, 1e-20])
def test_solver_kernel_probe_scales_with_the_operator(spacing):
    # K = d^T W d scales with the star factors W, and so does the probe that
    # rejects a source in its kernel
    fixed = {0: 0.0, 4: 1.0}
    reference = solve_free(CubicalComplex([8]), REAL_SCALAR, 0, fixed=fixed)
    scaled = solve_free(CubicalComplex([8], spacing=spacing), REAL_SCALAR, 0, fixed=fixed)
    assert np.max(np.abs(scaled.values - reference.values)) <= 1e-12
    cx = CubicalComplex([4, 4], spacing=spacing)
    closed = np.array([[1.0 if cx.cell(1, i).axes == (0,) else 0.0] for i in range(cx.cell_count(1))])
    with pytest.raises(SolverError, match="kernel"):
        solve_free(cx, REAL_SCALAR, 1, source=Cochain(cx, 1, REAL_SCALAR, closed))


def test_solve_free_rejects_inputs_it_cannot_use(torus444):
    n = torus444.cell_count(1)
    scalar_source = Cochain.zeros(torus444, 1, REAL_SCALAR)
    for kwargs in (
        {"source": scalar_source},  # another fiber, not broadcast
        {"fixed": {-1: [1.0, 0.0, 0.0]}},  # does not wrap to cell n - 1
        {"fixed": {n: [1.0, 0.0, 0.0]}},
        {"fixed": {0: [1.0, 0.0]}},
        {"fixed": {0: [1.0, 0.0, 0.0, 0.0]}},
        {"fixed": {1.7: [1.0, 0.0, 0.0]}},  # never truncated to cell 1
        {"fixed": {True: [1.0, 0.0, 0.0]}},
        {"fixed": {np.True_: [1.0, 0.0, 0.0]}},
        {"fixed": {0: [[1.0], [0.0, 0.0]]}},  # ragged
    ):
        with pytest.raises(DomainError):
            solve_free(torus444, SO3_FIBER, 1, **kwargs)
    value = [1.0, 0.0, 0.0]
    by_int = solve_free(torus444, SO3_FIBER, 1, fixed={1: value}).values
    assert np.array_equal(solve_free(torus444, SO3_FIBER, 1, fixed={np.int64(1): value}).values, by_int)
    # a nan fixed value fails the solve rather than leave the free cells zero
    with pytest.raises(SolverError, match="residual nan"):
        solve_free(torus444, SO3_FIBER, 1, fixed={0: [np.nan] * 3, 5: [0.0, 1.0, 0.0]})


def test_an_overflowing_source_fails_with_no_numpy_warning(torus444):
    # the zero-mean test sums the source: 2e308 overflows to inf, which
    # fails it; RuntimeWarnings are errors under this suite's settings
    src = np.zeros(torus444.cell_count(0))
    src[[1, 2]] = 1e308
    with pytest.raises(SolverError, match="zero mean"):
        solve_free(torus444, REAL_SCALAR, 0, source=Cochain(torus444, 0, REAL_SCALAR, src))


def test_real_fibers_refuse_nonzero_imaginary_parts(torus444):
    n = torus444.cell_count(1)
    values = np.zeros((n, 1), dtype=complex)
    assert not Cochain(torus444, 1, REAL_SCALAR, values).values.any()  # zero imaginary parts drop
    values[3] = 1.0 + 1e-300j
    for fiber, vals in ((REAL_SCALAR, values), (SO3_FIBER, np.repeat(values, 3, axis=1))):
        with pytest.raises(DomainError, match="imaginary"):
            Cochain(torus444, 1, fiber, vals)
    with pytest.raises(DomainError, match="imaginary"):
        solve_free(torus444, REAL_SCALAR, 1, fixed={0: 1j})
    psi = Cochain.zeros(torus444, 1, SO3_FIBER)
    with pytest.raises(DomainError, match="imaginary"):
        apply_fiber_map(psi, np.eye(3) + 1j * np.eye(3))
    assert Cochain(torus444, 1, COMPLEX_PAIR, np.full((n, 2), 1j)).values[0, 0] == 1j


def test_cochain_validation(torus444):
    with pytest.raises(DomainError):
        Cochain(torus444, 1, REAL_SCALAR, np.zeros((5, 1)))
    with pytest.raises(DomainError):
        Cochain(torus444, 0, REAL_SCALAR, [[1.0], [0.0, 0.0]])
    a = Cochain.zeros(torus444, 1, REAL_SCALAR)
    b = Cochain.zeros(torus444, 2, REAL_SCALAR)
    with pytest.raises(DomainError):
        inner(a, b)
    with pytest.raises(DomainError):
        a + b
    with pytest.raises(DomainError):
        apply_fiber_map(a, np.eye(3))
