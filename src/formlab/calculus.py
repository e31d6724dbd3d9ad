"""Discrete exterior calculus over a cubical complex.

Cochains assign a fiber value (real scalar, complex pair, or Lie-algebra
coefficient vector) to every cell of one degree.  The coboundary is the
transpose of the integer boundary incidence, applied as signed shift maps on
the mesh's block grids (`CubicalComplex.add_coboundary`), the Hodge star is
diagonal (dual/primal volume ratio times the axis-permutation sign), and the
inner product weights every cell by star factor times primal volume.  The
free-field solver runs one matrix-free conjugate-gradient recurrence per
component row, on the same shift maps.  On a torus it is preconditioned by
the operator's pseudo-inverse, read off the operator's own symbol by FFTs
(`_torus_preconditioner`), and stops in about 2k + 1 steps for k fixed
cells; a box, or a torus too ill-conditioned for that, runs plain
conjugate gradients.  Either way the solution is the one orthogonal to the
operator's kernel.
Everything runs on numpy alone (`numpy.fft` loads on the first
preconditioned solve); all operations are pure and cochain value arrays are
read-only, so `d` and `star` form their result once per cochain and keep
it there: every charge, report and check of one field shares one d psi and
one star d psi.  Every kernel that computes with field values runs with numpy's
overflow and invalid-value warnings off: a finite field may overflow to inf
or nan, which reports print and checks fail, but a numpy warning on stderr
would break the CLI's contract.
"""

from __future__ import annotations

import math

import numpy as np

from ._records import record
from .algebra import LieAlgebra
from .errors import DomainError, GeometryError, SolverError
from .mesh import Chain, CubicalComplex

DEFAULT_SOLVER_TOL = 1e-10


@record()
class FiberSpec:
    """What a cochain's values are: scalars, C^2 pairs, or algebra elements."""

    kind: str  # "real_scalar" | "complex_pair" | "algebra"
    algebra: LieAlgebra | None

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


REAL_SCALAR = FiberSpec("real_scalar", None)
COMPLEX_PAIR = FiberSpec("complex_pair", None)


def algebra_fiber(algebra: LieAlgebra) -> FiberSpec:
    return FiberSpec("algebra", algebra)


def _fiber_array(fiber: FiberSpec, values) -> np.ndarray:
    """A C-ordered copy in the fiber's dtype, so that a complex row views as its
    (re, im) float pairs; a real fiber refuses nonzero imaginary parts."""
    try:
        values = np.asarray(values)
    except ValueError as exc:  # a ragged nesting such as [[1.0], [0.0, 0.0]]
        raise DomainError(f"fiber values must form a regular array: {exc}") from None
    if not fiber.is_complex and np.iscomplexobj(values):
        if np.any(values.imag != 0):
            raise DomainError("a real fiber cannot hold values with nonzero imaginary parts")
        values = values.real
    return np.array(values, dtype=fiber.dtype, order="C")


class Cochain:
    """A degree-p assignment of fiber values to the p-cells of a complex."""

    # _d and _star keep d(self) and star(self): the values are read-only
    __slots__ = ("complex", "degree", "fiber", "values", "_d", "_star")

    def __init__(self, complex: CubicalComplex, degree: int, fiber: FiberSpec, values):
        n = complex.cell_count(degree)
        values = _fiber_array(fiber, values)
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
        self._d = self._star = None

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
    """Coboundary, formed once and kept on psi; d(d(psi)) vanishes exactly on
    integer-valued cochains."""
    if psi._d is not None:
        return psi._d
    cx = psi.complex
    if psi.degree >= cx.d:
        raise DomainError("top-degree cochains have no coboundary")
    # a complex value is its (re, im) float pair, each part mapped on its own
    values = psi.values.view(np.float64)
    out = np.zeros((cx.cell_count(psi.degree + 1), values.shape[1]))
    cx.add_coboundary(psi.degree, values.T, out.T)
    psi._d = Cochain(cx, psi.degree + 1, psi.fiber, out.view(psi.fiber.dtype))
    return psi._d


@np.errstate(over="ignore", invalid="ignore")
def star(psi: Cochain) -> Cochain:
    """Diagonal Hodge star onto the complementary degree.

    The value on the dual cell of a p-cell (its equal-base partner,
    `CubicalComplex.complement(p, 0)`) is the cell value scaled by the
    dual/primal volume ratio and by the permutation sign of (axes,
    complementary axes); with that sign, star(star(psi)) = (-1)^(p(d-p)) psi.
    Formed once and kept on psi, as `d` is.
    """
    if psi._star is not None:
        return psi._star
    cx = psi.complex
    p = psi.degree
    # a box has different primal and complementary cell counts
    if cx.topology != "torus":
        raise GeometryError("the Hodge star is only defined on torus meshes")
    signs, dual = cx.complement(p, 0)
    out = np.empty_like(psi.values)
    out[dual] = (cx.star_factors(p) * signs)[:, None] * psi.values
    psi._star = Cochain(cx, cx.d - p, psi.fiber, out)
    return psi._star


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


def action(psi: Cochain) -> float:
    """Free-field action: inner(d psi, d psi)."""
    dpsi = d(psi)
    val = inner(dpsi, dpsi)
    return val.real if isinstance(val, complex) else val


@np.errstate(over="ignore", invalid="ignore")
def apply_fiber_map(psi: Cochain, matrix: np.ndarray) -> Cochain:
    """Apply a linear map to the fiber index of every cell value."""
    matrix = _fiber_array(psi.fiber, matrix)
    k = psi.fiber.components
    if matrix.shape != (k, k):
        raise DomainError(f"fiber map must be {k}x{k}, got {matrix.shape}")
    return psi.with_values(psi.values @ matrix.T)


def max_norm(psi: Cochain) -> float:
    return float(np.max(np.abs(psi.values)))


def eom_residual(psi: Cochain) -> Cochain:
    """The equation-of-motion cochain d star d psi; zero on shell."""
    return d(star(d(psi)))


def _cg(apply_k, b: np.ndarray, tol: float, maxiter: int, apply_m) -> np.ndarray:
    """Conjugate gradients from zero for K x = b on one row b.

    Stops once ||r||_2 <= 1e-13 ||b||_2 (at once, with exact zeros, for a
    zero b), or once r.Mr <= 1e-12 (r0.Mr0 / r0.r0) r.r: r then lies in M's
    null space, K's kernel, so the source is incompatible.  Raises
    SolverError if max|K x - b| exceeds tol * (1 + max|b|).  apply_k(x)
    returns K x; apply_m(r), unless None, returns M r for a symmetric
    positive semidefinite M, and the stop test stays on the
    unpreconditioned residual r.  Runs under solve_free's error state.
    """

    def dot(u, v):
        return np.add.reduce(u * v)

    x, r, p, steps = np.zeros_like(b), b.copy(), None, 0
    stop = 1e-13 * np.sqrt(dot(r, r))
    for _ in range(maxiter):
        rho = dot(r, r)
        # a nan residual (breakdown on an incompatible source) never
        # converges: stop and let the residual test fail it
        if not np.sqrt(rho) > stop:
            break
        z = r if apply_m is None else apply_m(r)
        rz = rho if apply_m is None else dot(r, z)
        if p is None:
            floor = 1e-12 * rz / rho
            p = z.copy()
        else:
            p *= rz / rho_prev
            p += z
        # below the floor r lies in M's null space, K's kernel: take no
        # step and stop at the next stop test
        null = rz <= floor * rho
        if null:
            stop = np.inf
        q = apply_k(p)
        alpha = 0.0 if null else rz / dot(p, q)
        r -= alpha * q
        x += alpha * p
        rho_prev = rz
        steps += 1
    # the residual of a broken-down iteration is nan too
    residual = np.max(np.abs(apply_k(x) - b))
    bound = tol * (1.0 + np.max(np.abs(b)))
    # written so that a nan residual also fails
    if not residual <= bound:
        raise SolverError(
            f"linear solve did not reach tolerance: residual {residual:.3e} "
            f"(tolerance {bound:.3e}, {steps} iterations); "
            "the source may be incompatible"
        )
    return x


def _torus_preconditioner(cx: CubicalComplex, degree: int, fixed_idx):
    """apply_m(r) for M = E_f K^+ E_f on a torus, or None.

    E_f zeroes the fixed rows, and K^+ is the pseudo-inverse of the
    free-field operator K = d^T W d (W the star factors of degree p+1).
    On a torus d is block-circulant for any spacings: its symbol E(xi) at
    each wavevector xi is the FFT of d applied to an impulse at the origin
    cell of each p-block, and K(xi) = E^H W E.  As the coboundary symbols
    form an exact (Koszul) complex, P = I - C(d-1, p) E^H E / tr(E^H E) is
    the kernel projector of K(xi), free of spacings (I at xi = 0), and
    K^+ = (K + cP)^-1 - P / c for c = tr K / C(d-1, p).  PCG from zero
    keeps the solution orthogonal to the kernel, as plain CG does.  None
    where max|K(xi)| max|K^+(xi)| is not <= 1e12: K^+ is then not
    exact in double precision, and the solve runs plain CG, as a box does.
    """
    shape, m, grid = cx.shape, len(cx.axis_subsets(degree)), math.prod(cx.shape)
    rank = math.comb(cx.d - 1, degree)
    axes = tuple(range(-cx.d, 0))
    impulses = np.zeros((m, m * grid))
    impulses[range(m), range(0, m * grid, grid)] = 1.0
    stencils = np.zeros((m, cx.cell_count(degree + 1)))
    cx.add_coboundary(degree, impulses, stencils)
    w = cx.star_factors(degree + 1)[::grid]
    # e[j, a] is the FFT of block a of d(impulse in block j): E[a, j] per xi
    e = np.fft.rfftn(stencils.reshape(m, len(w), *shape), axes=axes)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        k = np.einsum("ia...,a,ja...->ij...", e.conj(), w, e)
        proj = np.einsum("ia...,ja...->ij...", e.conj(), e)  # E^H E, made P in place
        trace = np.einsum("ii...->...", proj).real
        trace.flat[0] = np.inf  # E = 0 at xi = 0, where P = I
        proj *= -rank / trace
        proj[range(m), range(m)] += 1.0
        c = np.einsum("ii...->...", k).real / rank
        c.flat[0] = 1.0
        # (K + cP)^-1 by Gauss-Jordan in place: no pivots on a positive definite matrix
        g = proj * c
        g += k
        for i in range(m):
            pivot = g[i, i].copy()
            g[i, i] = 1.0
            g[i] /= pivot
            for j in set(range(m)) - {i}:
                factor = g[j, i].copy()
                g[j, i] = 0.0
                g[j] -= factor * g[i]
        # PCG needs M symmetric; elimination leaves an asymmetry of eps cond
        g += np.conj(g.swapaxes(0, 1))
        g *= 0.5
        g -= proj / c
        if not np.abs(k).max() * np.abs(g).max() <= 1e12:
            return None

    def apply_m(r):
        r = r.copy()
        r[fixed_idx] = 0.0
        # on a torus each block of r is one grid of the mesh's shape
        f = np.einsum("ij...,j...->i...", g, np.fft.rfftn(r.reshape(m, *shape), axes=axes))
        out = np.fft.irfftn(f, s=shape, axes=axes).reshape(-1)
        out[fixed_idx] = 0.0
        return out

    return apply_m


def check_free(complex: CubicalComplex, degree: int) -> None:
    """Raise unless the free-field operator K acts on degree-p cochains of
    the complex: p below the top degree."""
    if degree >= complex.d:
        raise DomainError("no free-field operator at top degree")


# extreme values or spacings can overflow the source's sums and K; the mean
# and residual tests fail what overflows, with no numpy warning
@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def solve_free(
    complex: CubicalComplex,
    fiber: FiberSpec,
    degree: int,
    *,
    fixed=None,
    source: Cochain | None = None,
    tol: float = DEFAULT_SOLVER_TOL,
) -> Cochain:
    """Solve the free equation of motion K psi = rho, one component row at a time.

    Args:
        fixed: optional mapping {cell index: fiber value} of Dirichlet
            constraints, reproduced exactly in the output; an index that is
            not an integer in [0, n), such as a float or a bool, or a value
            of another size is a DomainError.
        source: optional cochain rho of the solved complex, degree and
            fiber; solves K psi = rho.  rho must be orthogonal to the kernel
            of K (for 0-forms: zero mean per component), otherwise
            SolverError.
        tol: max-norm tolerance on the linear residual.

    Each component (each real and imaginary part on complex fibers) is one
    row, solved by its own conjugate-gradient recurrence (`_cg`) from zero,
    which fixes the gauge: the solution is orthogonal to the kernel of K.
    On a torus the iteration is preconditioned by `_torus_preconditioner`,
    which keeps that solution at any spacings, unless they leave K too
    ill-conditioned for its exact pseudo-inverse; then the solve runs plain
    CG, as a box does.
    """
    check_free(complex, degree)
    n = complex.cell_count(degree)
    comps = fiber.components
    if source is not None and (source.complex, source.degree, source.fiber) != (complex, degree, fiber):
        raise DomainError("source must be a cochain of the solved complex, degree and fiber")
    rhs = np.zeros((n, comps), dtype=fiber.dtype) if source is None else source.values

    fixed = fixed or {}
    fixed_vals = [_fiber_array(fiber, value) for value in fixed.values()]
    # an index is an integer, never a truncated float or a bool
    indices_ok = all(
        isinstance(key, (int, np.integer)) and not isinstance(key, bool) and 0 <= key < n for key in fixed
    )
    if not indices_ok or any(value.size != comps for value in fixed_vals):
        raise DomainError(f"fixed cells need integer indices in [0, {n}) and values of {comps} components")
    fixed_idx = np.array(list(fixed), dtype=np.int64)
    fixed_arr = np.array([value.reshape(comps) for value in fixed_vals], dtype=fiber.dtype).reshape(-1, comps)
    if degree == 0 and not fixed_idx.size and np.any(np.abs(rhs.sum(axis=0)) > tol * n):
        raise SolverError("incompatible source: 0-form source must have zero mean per component")

    w = complex.star_factors(degree + 1)

    def apply_k(x):
        # K x = d^T(w * d x) on the last axis of x, with K psi = 0 equivalent
        # to d star d psi = 0 on a torus; zeroing the fixed cells keeps x zero
        # there, which restricts K to the free cells
        dx = np.zeros(x.shape[:-1] + (len(w),))
        complex.add_coboundary(degree, x, dx)
        dx *= w
        out = np.zeros(x.shape)
        complex.add_coboundary(degree, dx, out, transpose=True)
        out[..., fixed_idx] = 0.0
        return out

    boundary_values = np.zeros((n, comps), dtype=fiber.dtype)
    boundary_values[fixed_idx] = fixed_arr
    apply_m = _torus_preconditioner(complex, degree, fixed_idx) if complex.topology == "torus" else None
    # one row per float of a value: a complex component is its (re, im) pair
    b = rhs.view(np.float64).T - apply_k(boundary_values.view(np.float64).T)
    b[:, fixed_idx] = 0.0
    # K is symmetric, so a right-hand side in its kernel cannot be in its
    # range: fail fast instead of letting the iteration break down.  On the
    # kernel K b is rounding, at most about eps * max(w) * max|b|, so the
    # test scales with the star factors as K does
    b_norm = np.max(np.abs(b), axis=1)
    kb_norm = np.max(np.abs(apply_k(b)), axis=1)
    if np.any((kb_norm / w.max() <= 1e-14 * b_norm) & (b_norm > 0.0)):
        raise SolverError(
            "the source lies in the kernel of the operator to rounding: it is incompatible, "
            "or the spacings leave the operator too ill-conditioned to solve"
        )
    x = np.array([_cg(apply_k, row, tol, 10 * n + 100, apply_m) for row in b])

    out = np.ascontiguousarray(x.T).view(fiber.dtype)
    out[fixed_idx] = fixed_arr
    return Cochain(complex, degree, fiber, out)
