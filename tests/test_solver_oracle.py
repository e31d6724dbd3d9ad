"""The solved field against an independent dense minimum-norm solution.

A strategy draws a small torus or box (at most 540 cells of the solved
degree), a degree below the top, a fiber, 0-4 fixed cells, an optional
compatible source K phi, and spacings with one axis up to 10^4 apart from
the others.  Two explicit examples are `configs/solve_so3.json` (648
cells) with axis-0 spacing 10^4 and 10^-4.  The oracle builds K = C^T W C
densely from the coboundary matrix, restricts it to the free cells and
forms the minimum-norm solution from `np.linalg.eigh`, keeping the
eigenvalues above the numerical-rank cutoff n eps max(lambda) that
`np.linalg.matrix_rank` uses.  `solve_free` must agree with it to the
conditioning bound cond(K_ff) 1e-13 max|x|, the condition number taken
over the kept spectrum, with a floor of 1e-12.
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from formlab import COMPLEX_PAIR, REAL_SCALAR, Cochain, CubicalComplex, algebra_fiber, so3, solve_free

FIBERS = [REAL_SCALAR, COMPLEX_PAIR, algebra_fiber(so3())]


@st.composite
def problems(draw):
    d = draw(st.integers(1, 3))
    shape = draw(st.lists(st.integers(2, 5), min_size=d, max_size=d))
    spacing = [1.0] * d
    spacing[draw(st.integers(0, d - 1))] = 10.0 ** (draw(st.integers(-8, 8)) / 2)
    cx = CubicalComplex(shape, spacing=spacing, topology=draw(st.sampled_from(["torus", "box"])))
    p = draw(st.integers(0, d - 1))
    n = cx.cell_count(p)
    k = draw(st.integers(0, min(4, n - 1)))
    fixed = draw(st.lists(st.integers(0, n - 1), min_size=k, max_size=k, unique=True))
    return cx, p, draw(st.sampled_from(FIBERS)), fixed, draw(st.booleans()), draw(st.integers(0, 2**32 - 1))


def _values(fiber, count, rng):
    values = rng.standard_normal((count, fiber.components))
    if fiber.is_complex:
        values = values + 1j * rng.standard_normal(values.shape)
    return values


def _solve_so3(axis_spacing):
    """configs/solve_so3.json (so(3) 1-forms on a 6^3 torus, two fixed
    cells) with one long or short axis."""
    cx = CubicalComplex([6, 6, 6], spacing=[axis_spacing, 1.0, 1.0])
    fixed = [cx.cell_index(1, (0, 0, 0), (0,)), cx.cell_index(1, (3, 3, 3), (1,))]
    return cx, 1, FIBERS[2], fixed, False, 0


@settings(max_examples=40, derandomize=True, database=None, deadline=None)
@given(problems())
@example(_solve_so3(1e4))
@example(_solve_so3(1e-4))
def test_solve_free_is_the_minimum_norm_solution(problem):
    cx, p, fiber, fixed, with_source, seed = problem
    rng = np.random.default_rng(seed)
    c = cx.coboundary_matrix(p).toarray()
    k = c.T @ (cx.star_factors(p + 1)[:, None] * c)
    n = k.shape[0]
    fixed_values = _values(fiber, len(fixed), rng)
    # K phi is in the range of every restriction of K to free cells
    rho = k @ _values(fiber, n, rng) if with_source else np.zeros((n, fiber.components), dtype=fiber.dtype)
    psi = solve_free(
        cx, fiber, p,
        fixed=dict(zip(fixed, fixed_values)),
        source=Cochain(cx, p, fiber, rho) if with_source else None,
    ).values

    free = np.setdiff1d(np.arange(n), fixed)
    lam, vec = np.linalg.eigh(k[np.ix_(free, free)])
    kept = lam > len(free) * np.finfo(float).eps * lam.max()
    vec = vec[:, kept]
    rhs = rho[free] - k[np.ix_(free, fixed)] @ fixed_values.reshape(len(fixed), fiber.components)
    expected = np.zeros_like(rho)
    expected[fixed] = fixed_values
    expected[free] = vec @ ((vec.T @ rhs) / lam[kept][:, None])
    cond = lam.max() / lam[kept].min() if kept.any() else 1.0
    bound = max(cond * 1e-13 * np.abs(expected).max(), 1e-12)
    assert np.abs(psi - expected).max() <= bound, (cx.shape, cx.spacing, cx.topology, p, fixed, cond)
