"""Discrete exterior calculus over a cubical complex.

Cochains assign a fiber value (real scalar, complex pair, or Lie-algebra
coefficient vector) to every cell of one degree.  The coboundary is the
transpose of the integer boundary incidence, applied as signed shift maps on
the mesh's block grids (`CubicalComplex.add_coboundary`), the Hodge star is
diagonal (dual/primal volume ratio times the axis-permutation sign), and the
inner product weights every cell by star factor times primal volume.  The
free-field solver is a matrix-free conjugate-gradient iteration on the same
shift maps.  On a torus it is preconditioned by the operator's
pseudo-inverse, which is block-circulant and applied in closed form by FFTs
(`_torus_preconditioner`), and stops in about 2k + 1 steps for k fixed
cells; a box runs plain conjugate gradients.  Either way the solution is
the one orthogonal to the operator's kernel.  Everything runs on numpy
alone (`numpy.fft` loads on the first torus solve); all operations are
pure and cochain value arrays are read-only.  Every kernel that computes
with field values runs with numpy's overflow and invalid-value warnings
off: a finite field may overflow to inf or nan, which reports print and
checks fail, but a numpy warning on stderr would break the CLI's contract.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import LieAlgebra
from .errors import DomainError, GeometryError, SolverError
from .mesh import Chain, CubicalComplex

DEFAULT_SOLVER_TOL = 1e-10


@dataclass(frozen=True)
class FiberSpec:
    """What a cochain's values are: scalars, C^2 pairs, or algebra elements."""

    kind: str  # "real_scalar" | "complex_pair" | "algebra"
    algebra: LieAlgebra | None = None

    def __post_init__(self):
        if self.kind not in ("real_scalar", "complex_pair", "algebra"):
            raise DomainError(f"unknown fiber kind {self.kind!r}")
        if (self.kind == "algebra") != (self.algebra is not None):
            raise DomainError("algebra fibers need an algebra; others must not have one")

    @property
    def components(self) -> int:
        if self.kind == "real_scalar":
            return 1
        if self.kind == "complex_pair":
            return 2
        return self.algebra.dim

    @property
    def dtype(self):
        return np.complex128 if self.kind == "complex_pair" else np.float64

    @property
    def is_complex(self) -> bool:
        return self.kind == "complex_pair"


REAL_SCALAR = FiberSpec("real_scalar")
COMPLEX_PAIR = FiberSpec("complex_pair")


def algebra_fiber(algebra: LieAlgebra) -> FiberSpec:
    return FiberSpec("algebra", algebra)


class Cochain:
    """A degree-p assignment of fiber values to the p-cells of a complex."""

    __slots__ = ("complex", "degree", "fiber", "values")

    def __init__(self, complex: CubicalComplex, degree: int, fiber: FiberSpec, values):
        n = complex.cell_count(degree)
        # C order, so that a complex row views as its (re, im) float pairs
        values = np.array(values, dtype=fiber.dtype, order="C")
        if values.ndim == 1 and fiber.components == 1:
            values = values.reshape(n, 1)
        if values.shape != (n, fiber.components):
            raise DomainError(
                f"values must have shape ({n}, {fiber.components}), got {values.shape}"
            )
        values.setflags(write=False)
        self.complex = complex
        self.degree = degree
        self.fiber = fiber
        self.values = values

    @classmethod
    def zeros(cls, complex: CubicalComplex, degree: int, fiber: FiberSpec) -> Cochain:
        n = complex.cell_count(degree)
        return cls(complex, degree, fiber, np.zeros((n, fiber.components), dtype=fiber.dtype))

    @classmethod
    @np.errstate(over="ignore")
    def random_gaussian(
        cls,
        complex: CubicalComplex,
        degree: int,
        fiber: FiberSpec,
        rng: np.random.Generator,
        stddev: float = 1.0,
    ) -> Cochain:
        n = complex.cell_count(degree)
        shape = (n, fiber.components)
        vals = stddev * rng.standard_normal(shape)
        if fiber.is_complex:
            vals = vals + 1j * stddev * rng.standard_normal(shape)
        return cls(complex, degree, fiber, vals)

    def with_values(self, values) -> Cochain:
        return Cochain(self.complex, self.degree, self.fiber, values)

    def _check_compatible(self, other: Cochain):
        same_place = other.complex is self.complex and other.degree == self.degree
        if not same_place or other.fiber != self.fiber:
            raise DomainError("cochains must share complex, degree and fiber")

    def __add__(self, other: Cochain) -> Cochain:
        self._check_compatible(other)
        return self.with_values(self.values + other.values)

    def __sub__(self, other: Cochain) -> Cochain:
        self._check_compatible(other)
        return self.with_values(self.values - other.values)

    def __rmul__(self, scalar) -> Cochain:
        return self.with_values(scalar * self.values)

    def __repr__(self):
        return f"Cochain(degree={self.degree}, fiber={self.fiber.kind}, cells={self.values.shape[0]})"


@np.errstate(over="ignore", invalid="ignore")
def d(psi: Cochain) -> Cochain:
    """Coboundary; d(d(psi)) vanishes exactly on integer-valued cochains."""
    cx = psi.complex
    if psi.degree >= cx.d:
        raise DomainError("top-degree cochains have no coboundary")
    # a complex value is its (re, im) float pair, each part mapped on its own
    values = psi.values.view(np.float64)
    out = np.zeros((cx.cell_count(psi.degree + 1), values.shape[1]))
    cx.add_coboundary(psi.degree, values.T, out.T)
    return Cochain(cx, psi.degree + 1, psi.fiber, out.view(psi.fiber.dtype))


@np.errstate(over="ignore", invalid="ignore")
def star(psi: Cochain) -> Cochain:
    """Diagonal Hodge star onto the complementary degree.

    The value on the dual cell of a p-cell (its equal-base partner,
    `CubicalComplex.complement(p, 0)`) is the cell value scaled by the
    dual/primal volume ratio and by the permutation sign of (axes,
    complementary axes); with that sign, star(star(psi)) = (-1)^(p(d-p)) psi.
    """
    cx = psi.complex
    p = psi.degree
    # a box has different primal and complementary cell counts
    if cx.topology != "torus":
        raise GeometryError("the Hodge star is only defined on torus meshes")
    signs, dual = cx.complement(p, 0)
    out = np.empty_like(psi.values)
    out[dual] = (cx.star_factors(p) * signs)[:, None] * psi.values
    return Cochain(cx, cx.d - p, psi.fiber, out)


@np.errstate(over="ignore", invalid="ignore")
def integrate(psi: Cochain, chain: Chain):
    """Pair a cochain with a chain: sum of coefficient * value over cells.

    The terms are added left to right from +0.0 in cell order, as a loop
    would (np.sum's pairwise order rounds differently).  Returns a float for
    real scalar fibers, else a component vector.
    """
    if chain.complex is not psi.complex:
        raise DomainError("cochain and chain must live on the same complex")
    if chain.degree != psi.degree:
        raise DomainError(
            f"degree mismatch: cochain degree {psi.degree}, chain degree {chain.degree}"
        )
    terms = chain.coefs[:, None] * psi.values[chain.cells]
    zero = np.zeros(psi.fiber.components, dtype=psi.fiber.dtype)
    acc = np.add.accumulate(np.vstack([zero, terms]))[-1]
    if psi.fiber.kind == "real_scalar":
        return float(acc[0])
    return acc


@np.errstate(over="ignore", invalid="ignore")
def inner(psi: Cochain, phi: Cochain):
    """Metric inner product; conjugates the first argument on complex fibers.

    Positive definite.  Returns a float for real fibers and a complex number
    (conjugate-symmetric) for the complex pair fiber.
    """
    psi._check_compatible(phi)
    cx = psi.complex
    w = cx.star_factors(psi.degree) * cx.primal_volumes(psi.degree)
    val = np.sum(w * np.sum(np.conj(psi.values) * phi.values, axis=1))
    return complex(val) if psi.fiber.is_complex else float(val)


def action(psi: Cochain, prefactor: float = 1.0) -> float:
    """Free-field action: prefactor * inner(d psi, d psi)."""
    dpsi = d(psi)
    val = inner(dpsi, dpsi)
    return prefactor * (val.real if isinstance(val, complex) else val)


@np.errstate(over="ignore", invalid="ignore")
def apply_fiber_map(psi: Cochain, matrix: np.ndarray) -> Cochain:
    """Apply a linear map to the fiber index of every cell value."""
    matrix = np.asarray(matrix)
    k = psi.fiber.components
    if matrix.shape != (k, k):
        raise DomainError(f"fiber map must be {k}x{k}, got {matrix.shape}")
    if not psi.fiber.is_complex and np.iscomplexobj(matrix):
        if np.max(np.abs(matrix.imag)) > 0:
            raise DomainError("complex fiber map applied to a real fiber")
        matrix = matrix.real
    return psi.with_values(psi.values @ matrix.T)


def max_norm(psi: Cochain) -> float:
    return float(np.max(np.abs(psi.values)))


def eom_residual(psi: Cochain) -> Cochain:
    """The equation-of-motion cochain d star d psi; zero on shell."""
    return d(star(d(psi)))


def _lockstep_cg(apply_k, b: np.ndarray, tol: float, maxiter: int, apply_m) -> np.ndarray:
    """Conjugate gradients from zero for every row of b at once.

    Each row keeps its own recurrence (alpha, beta and the stop test
    ||r||_2 <= 1e-13 ||b||_2) and leaves the block once it stops; the rows
    still running share one operator application per step.  A zero row
    gives exact zeros.  Raises SolverError for any row whose max-norm
    residual exceeds tol * (1 + max|b|); a row in the kernel of K breaks
    down into nan and fails that test.

    apply_k(x, out) writes K x into out.  apply_m(r, scratch, out), unless
    None, writes M r into out for a symmetric positive semidefinite
    preconditioner M, free to use scratch; the stop test stays on the
    unpreconditioned residual r.  Buffers are reused: each step writes K p
    into one scratch block of b's shape (and M r into a second), used
    through its leading rows as the block shrinks, and once alpha is known
    the same rows take the alpha-scaled updates of r and x.  No step
    allocates a block; only a step where rows leave copies the rows kept.
    Row dot products are formed in a third scratch block and summed by
    np.add.reduce, each row on its own, so that a row's result never depends
    on the rows beside it (einsum's buffered sums do, past 8192 entries).
    """
    x = np.zeros_like(b)
    b_norm = np.max(np.abs(b), axis=1)
    live = np.flatnonzero(b_norm > 0.0)
    if not live.size:
        return x
    kx = np.empty(b.shape)
    mr = None if apply_m is None else np.empty(b.shape)
    # dot's products, C-ordered whatever the layout of its arguments
    products = np.empty(b.shape)

    def dot(u, v):
        return np.add.reduce(np.multiply(u, v, out=products[: len(u)]), axis=1)

    xs, r, p = np.zeros((live.size, b.shape[1])), b[live], None
    stop = 1e-13 * np.sqrt(dot(r, r))
    steps = 0
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(maxiter):
            rho = dot(r, r)
            # a nan residual (breakdown on an incompatible source) never
            # converges: stop that row too and let the residual test fail it
            done = ~(np.sqrt(rho) > stop)
            if done.any():
                x[live[done]] = xs[done]
                keep = ~done
                live, xs, r, rho, stop = live[keep], xs[keep], r[keep], rho[keep], stop[keep]
                if p is not None:
                    p, rho_prev = p[keep], rho_prev[keep]
                if not live.size:
                    break
            z = r
            if apply_m is not None:
                z = apply_m(r, kx[: live.size], mr[: live.size])
                rho = dot(r, z)
            if p is None:
                p = z.copy()
            else:
                p *= (rho / rho_prev)[:, None]
                p += z
            q = apply_k(p, kx[: live.size])
            alpha = (rho / dot(p, q))[:, None]
            r -= np.multiply(alpha, q, out=q)
            xs += np.multiply(alpha, p, out=q)
            rho_prev = rho
            steps += 1
        x[live] = xs
        # the residual of a broken-down row is nan too
        residual = np.max(np.abs(apply_k(x, kx) - b), axis=1)
    bound = tol * (1.0 + b_norm)
    # written so that a nan residual also fails
    bad = np.flatnonzero(~(residual <= bound))
    if bad.size:
        i = bad[0]
        raise SolverError(
            f"linear solve did not reach tolerance: residual {residual[i]:.3e} "
            f"(tolerance {bound[i]:.3e}, {steps} iterations); "
            "the source may be incompatible"
        )
    return x


def _torus_preconditioner(cx: CubicalComplex, degree: int, laplacian, fixed_idx):
    """apply_m(r, scratch, out) for M = E_f K^+ E_f on a torus, or None.

    E_f zeroes the fixed rows, and K^+ is the pseudo-inverse of the
    free-field operator K = d^T W d (W the star factors of degree p+1).
    On a torus K is block-circulant.  With w the star factors of degree p,
    A = w^-1 K is the metric Laplacian delta d; as delta d + d delta is the
    scalar Laplacian on a flat torus and d d = 0, A^2 = Delta A at each
    wavevector xi, where Delta = sum_a 4 sin^2(xi_a / 2) / h_a^2.  So
    w^-1 K w^-1 G, with the Fourier multiplier G = 1 / Delta^2 (0 at
    xi = 0), satisfies K M K = K and M K M = M.  Where w is one number on
    all blocks (p = 0 or equal spacings) it is K^+ itself.  Otherwise it is
    wrapped on both sides in P = d^T d G_1, with G_1 = 1 / Delta at unit
    spacing: the orthogonal projector onto range(d^T) = range(K), which
    makes the product symmetric with K's range, hence K^+.  With K^+, PCG
    from zero keeps the solution orthogonal to the kernel that plain CG
    returns.

    laplacian(x, out, weights) writes d^T(weights * d x) into out, with W
    as the default weights.  Each row and each block is transformed on its
    own, so that a row's result never depends on the rows beside it.  None
    when the spacings are so extreme that G over- or underflows.
    """
    shape, d = cx.shape, cx.d
    # 4 sin^2(xi_a / 2) along each axis of the rfftn grid (the last axis
    # halved), shaped to broadcast over all d axes
    waves = []
    for a, n in enumerate(shape):
        k = np.arange(n // 2 + 1 if a == d - 1 else n)
        waves.append((2 * np.sin(np.pi * k / n)).reshape((-1,) + (1,) * (d - 1 - a)) ** 2)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        g = 1.0 / sum(lam / np.square(h) for lam, h in zip(waves, np.array(cx.spacing))) ** 2
    g.flat[0] = 0.0
    if not (np.isfinite(g).all() and (g.flat[1:] > 0).all()):
        return None
    scale = 1.0 / cx.star_factors(degree)
    axes = tuple(range(d))

    def fourier(x, multiplier):
        # on a torus each block of a row is one grid of the mesh's shape, so
        # a C-ordered block of rows is a view of (rows * blocks) grids
        for grid in x.reshape(-1, *shape):
            grid[...] = np.fft.irfftn(np.fft.rfftn(grid) * multiplier, s=shape, axes=axes)

    project = not np.all(scale == scale[0])
    if project:
        with np.errstate(divide="ignore"):
            g1 = 1.0 / sum(waves)
        g1.flat[0] = 0.0

    def apply_m(r, scratch, out):
        np.copyto(scratch, r)
        scratch[:, fixed_idx] = 0.0
        if project:
            # P G = d^T d G_1 G on the right
            fourier(scratch, g * g1)
            np.copyto(scratch, laplacian(scratch, out, 1.0))
        else:
            fourier(scratch, g)
        scratch *= scale
        laplacian(scratch, out)
        out *= scale
        if project:
            fourier(out, g1)
            np.copyto(out, laplacian(out, scratch, 1.0))
        out[:, fixed_idx] = 0.0
        return out

    return apply_m


def solve_free(
    complex: CubicalComplex,
    fiber: FiberSpec,
    degree: int,
    *,
    fixed=None,
    source: Cochain | None = None,
    tol: float = DEFAULT_SOLVER_TOL,
) -> Cochain:
    """Solve the free equation of motion K psi = rho for all components at once.

    Args:
        fixed: optional mapping {cell index: fiber value} of Dirichlet
            constraints, reproduced exactly in the output.
        source: optional cochain rho; solves K psi = rho.  rho must be
            orthogonal to the kernel of K (for 0-forms: zero mean per
            component), otherwise SolverError.
        tol: max-norm tolerance on the linear residual.

    One conjugate-gradient iteration runs over a block with one row per
    component (two on complex fibers: real and imaginary parts), each row
    with its own recurrence.  Every row starts from zero, which fixes the
    gauge: the solution is orthogonal to the kernel of K.  On a torus the
    iteration is preconditioned by `_torus_preconditioner`, which keeps that
    solution.
    """
    if degree >= complex.d:
        raise DomainError("no free-field operator at top degree")
    n = complex.cell_count(degree)
    comps = fiber.components
    rhs = np.zeros((n, comps), dtype=fiber.dtype)
    if source is not None:
        if source.complex is not complex or source.degree != degree:
            raise DomainError("source must be a cochain of the solved degree")
        rhs = rhs + source.values

    fixed_idx = []
    fixed_vals = []
    for key, value in (fixed or {}).items():
        val = np.asarray(value, dtype=fiber.dtype).reshape(comps)
        fixed_idx.append(int(key))
        fixed_vals.append(val)
    fixed_idx = np.asarray(fixed_idx, dtype=np.int64)
    fixed_arr = np.asarray(fixed_vals, dtype=fiber.dtype).reshape(-1, comps)
    if degree == 0 and not fixed_idx.size:
        means = np.abs(rhs.sum(axis=0))
        if np.any(means > tol * n):
            raise SolverError(
                "incompatible source: 0-form source must have zero mean per component"
            )

    def rows(values):
        # one row per float of a value: a complex component is its (re, im) pair
        return values.view(np.float64).T

    w = complex.star_factors(degree + 1)
    block_rows = comps * (2 if fiber.is_complex else 1)
    # d x for up to every row, reused by each operator application
    dx_block = np.empty((block_rows, complex.cell_count(degree + 1)))

    def laplacian(x, out, weights=w):
        # d^T(weights * d x) for each row of x
        dx = dx_block[: len(x)]
        dx.fill(0.0)
        complex.add_coboundary(degree, x, dx)
        dx *= weights
        out.fill(0.0)
        complex.add_coboundary(degree, dx, out, transpose=True)
        return out

    def apply_k(x, out):
        # K x = d^T(w * d x), with K psi = 0 equivalent to d star d psi = 0
        # on a torus; zeroing the fixed rows keeps a block that is zero there
        # so, which restricts K to the free cells
        laplacian(x, out)
        out[:, fixed_idx] = 0.0
        return out

    boundary_values = np.zeros((n, comps), dtype=fiber.dtype)
    boundary_values[fixed_idx] = fixed_arr
    apply_m = None
    if complex.topology == "torus":
        apply_m = _torus_preconditioner(complex, degree, laplacian, fixed_idx)
    # extreme spacings can overflow K; the residual test fails what overflows
    with np.errstate(over="ignore", invalid="ignore"):
        b = rows(rhs) - apply_k(rows(boundary_values), np.empty((block_rows, n)))
        b[:, fixed_idx] = 0.0
        # K is symmetric, so a right-hand side in its kernel cannot be in its
        # range: fail fast instead of letting the iteration break down.  On
        # the kernel K b is rounding, at most about eps * max(w) * max|b|, so
        # the test scales with the star factors as K does
        b_norm = np.max(np.abs(b), axis=1)
        live = b_norm > 0.0
        kb_norm = np.max(np.abs(apply_k(b[live], np.empty((np.count_nonzero(live), n)))), axis=1)
        if np.any(kb_norm / w.max() <= 1e-14 * b_norm[live]):
            raise SolverError("incompatible source: it lies in the kernel of the operator")
        x = _lockstep_cg(apply_k, b, tol, 10 * n + 100, apply_m)

    out = np.ascontiguousarray(x.T).view(fiber.dtype)
    out[fixed_idx] = fixed_arr
    return Cochain(complex, degree, fiber, out)
