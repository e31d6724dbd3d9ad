"""Discrete exterior calculus over a cubical complex.

Cochains assign a fiber value (real scalar, complex pair, or Lie-algebra
coefficient vector) to every cell of one degree.  The coboundary is the
transpose of the integer boundary incidence, applied from the mesh's face
tables with numpy alone (only the solver loads scipy), the Hodge star is
diagonal (dual/primal volume ratio times the axis-permutation sign), and the
inner product weights every cell by star factor times primal volume.  All
operations are pure; cochain value arrays are read-only.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .algebra import LieAlgebra
from .errors import DomainError, SolverError
from .mesh import Chain, CubicalComplex

if TYPE_CHECKING:
    import scipy.sparse as sp

DEFAULT_SOLVER_TOL = 1e-10


@dataclass(frozen=True, eq=False)
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

    def zero_value(self) -> np.ndarray:
        return np.zeros(self.components, dtype=self.dtype)


REAL_SCALAR = FiberSpec("real_scalar")
COMPLEX_PAIR = FiberSpec("complex_pair")


def algebra_fiber(algebra: LieAlgebra) -> FiberSpec:
    return FiberSpec("algebra", algebra)


class Cochain:
    """A degree-p assignment of fiber values to the p-cells of a complex."""

    __slots__ = ("complex", "degree", "fiber", "values")

    def __init__(self, complex: CubicalComplex, degree: int, fiber: FiberSpec, values):
        n = complex.cell_count(degree)
        values = np.array(values, dtype=fiber.dtype)
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
        same_fiber = other.fiber is self.fiber or (
            other.fiber.kind == self.fiber.kind
            and other.fiber.algebra is self.fiber.algebra
        )
        if other.complex is not self.complex or other.degree != self.degree or not same_fiber:
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


def d(psi: Cochain) -> Cochain:
    """Coboundary; d(d(psi)) vanishes exactly on integer-valued cochains."""
    if psi.degree >= psi.complex.d:
        raise DomainError("top-degree cochains have no coboundary")
    faces, signs = psi.complex.face_table(psi.degree + 1)
    # one face column at a time, adding sign * value to zeros in the order of
    # the CSR product with coboundary_matrix, so every number comes out the
    # same to the bit, signed zeros included (a nan may differ in its unprinted
    # sign bit, which the compiled product does not fix either); quietly on
    # inf and nan values, as that product is
    out = np.zeros((faces.shape[1], psi.values.shape[1]), dtype=psi.values.dtype)
    with np.errstate(invalid="ignore", over="ignore"):
        for idx, sign in zip(faces, signs):
            out += sign[:, None] * psi.values.take(idx, axis=0)
    return Cochain(psi.complex, psi.degree + 1, psi.fiber, out)


def star(psi: Cochain) -> Cochain:
    """Diagonal Hodge star onto the complementary degree.

    The value on the dual cell of a p-cell (equal-base complement indexing)
    is the cell value scaled by the dual/primal volume ratio and by the
    permutation sign of (axes, complementary axes); with that sign,
    star(star(psi)) = (-1)^(p(d-p)) psi.
    """
    cx = psi.complex
    p = psi.degree
    factors = cx.star_factors(p) * cx.star_signs(p)
    out = np.empty_like(psi.values)
    out[cx.star_index(p)] = factors[:, None] * psi.values
    return Cochain(cx, cx.d - p, psi.fiber, out)


def integrate(psi: Cochain, chain: Chain):
    """Pair a cochain with a chain: sum of coefficient * value over cells.

    Returns a float for real scalar fibers, else a component vector.
    """
    if chain.complex is not psi.complex:
        raise DomainError("cochain and chain must live on the same complex")
    if chain.degree != psi.degree:
        raise DomainError(
            f"degree mismatch: cochain degree {psi.degree}, chain degree {chain.degree}"
        )
    acc = psi.fiber.zero_value()
    for idx, coef in chain.items():
        acc = acc + coef * psi.values[idx]
    if psi.fiber.kind == "real_scalar":
        return float(acc[0])
    return acc


def fiber_pairing_weights(psi: Cochain) -> np.ndarray:
    cx = psi.complex
    return cx.star_factors(psi.degree) * cx.primal_volumes(psi.degree)


def inner(psi: Cochain, phi: Cochain):
    """Metric inner product; conjugates the first argument on complex fibers.

    Positive definite.  Returns a float for real fibers and a complex number
    (conjugate-symmetric) for the complex pair fiber.
    """
    psi._check_compatible(phi)
    w = fiber_pairing_weights(psi)
    if psi.fiber.is_complex:
        cellwise = np.sum(np.conj(psi.values) * phi.values, axis=1)
        return complex(np.sum(w * cellwise))
    cellwise = np.sum(psi.values * phi.values, axis=1)
    return float(np.sum(w * cellwise))


def action(psi: Cochain, prefactor: float = 1.0) -> float:
    """Free-field action: prefactor * inner(d psi, d psi)."""
    dpsi = d(psi)
    val = inner(dpsi, dpsi)
    return prefactor * (val.real if isinstance(val, complex) else val)


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


def free_field_operator(complex: CubicalComplex, degree: int) -> sp.csr_matrix:
    """Symmetric positive semi-definite operator of the free equation of motion.

    K = C^T diag(star factors) C with C the degree -> degree+1 coboundary;
    K psi = 0 is equivalent to d star d psi = 0 on a torus.
    """
    if degree >= complex.d:
        raise DomainError("no free-field operator at top degree")
    import scipy.sparse as sp

    c = complex.coboundary_matrix(degree)
    w = complex.star_factors(degree + 1)
    return (c.T @ sp.diags(w) @ c).tocsr()


def _cg_solve(k_mat, b, tol, maxiter):
    from scipy.sparse.linalg import cg

    b_norm = float(np.max(np.abs(b)))
    if b_norm == 0.0:
        return np.zeros_like(b)
    # the operator is symmetric, so a right-hand side in its kernel cannot be
    # in its range: fail fast instead of letting cg break down
    if float(np.max(np.abs(k_mat @ b))) <= 1e-14 * b_norm:
        raise SolverError("incompatible source: it lies in the kernel of the operator")
    with np.errstate(divide="ignore", invalid="ignore"):
        x, info = cg(k_mat, b, rtol=1e-13, atol=0.0, maxiter=maxiter)
    residual = float(np.max(np.abs(k_mat @ x - b)))
    bound = tol * (1.0 + b_norm)
    # the comparison is written so that a NaN residual (CG breakdown on an
    # incompatible source) also fails
    if not residual <= bound:
        raise SolverError(
            f"linear solve did not reach tolerance: residual {residual:.3e} "
            f"(tolerance {bound:.3e}, cg info {info}); "
            "the source may be incompatible"
        )
    return x


def solve_free(
    complex: CubicalComplex,
    fiber: FiberSpec,
    degree: int,
    *,
    fixed=None,
    source: Cochain | None = None,
    tol: float = DEFAULT_SOLVER_TOL,
    maxiter: int | None = None,
) -> Cochain:
    """Solve the free equation of motion componentwise.

    Args:
        fixed: optional mapping {cell index or Cell: fiber value} of Dirichlet
            constraints, reproduced exactly in the output.
        source: optional cochain rho; solves K psi = rho.  rho must be
            orthogonal to the kernel of K (for 0-forms: zero mean per
            component), otherwise SolverError.
        tol: max-norm tolerance on the linear residual.

    Without constraints the conjugate-gradient iteration starts from zero,
    which fixes the gauge: the solution is orthogonal to the kernel of K.
    """
    k_mat = free_field_operator(complex, degree)
    n = complex.cell_count(degree)
    comps = fiber.components
    rhs = np.zeros((n, comps), dtype=fiber.dtype)
    if source is not None:
        if source.complex is not complex or source.degree != degree:
            raise DomainError("source must be a cochain of the solved degree")
        rhs = rhs + source.values
    if maxiter is None:
        maxiter = 10 * n + 100

    fixed_idx = []
    fixed_vals = []
    for key, value in (fixed or {}).items():
        idx = complex.index_of(key) if hasattr(key, "axes") else int(key)
        val = np.asarray(value, dtype=fiber.dtype).reshape(comps)
        fixed_idx.append(idx)
        fixed_vals.append(val)
    out = np.zeros((n, comps), dtype=fiber.dtype)

    if fixed_idx:
        order = np.argsort(fixed_idx)
        fixed_idx = np.asarray(fixed_idx, dtype=np.int64)[order]
        fixed_arr = np.asarray(fixed_vals)[order]
        free = np.setdiff1d(np.arange(n), fixed_idx)
        k_ff = k_mat[free][:, free]
        k_fc = k_mat[free][:, fixed_idx]
        for comp in range(comps):
            b = rhs[free, comp] - k_fc @ fixed_arr[:, comp]
            if fiber.is_complex:
                re = _cg_solve(k_ff, b.real, tol, maxiter)
                im = _cg_solve(k_ff, b.imag, tol, maxiter)
                out[free, comp] = re + 1j * im
            else:
                out[free, comp] = _cg_solve(k_ff, b.real, tol, maxiter)
        out[fixed_idx] = fixed_arr
    else:
        if degree == 0:
            means = np.abs(rhs.sum(axis=0))
            if np.any(means > tol * n):
                raise SolverError(
                    "incompatible source: 0-form source must have zero mean per component"
                )
        for comp in range(comps):
            b = rhs[:, comp]
            if fiber.is_complex:
                out[:, comp] = _cg_solve(k_mat, b.real, tol, maxiter) + 1j * _cg_solve(
                    k_mat, b.imag, tol, maxiter
                )
            else:
                out[:, comp] = _cg_solve(k_mat, b.real, tol, maxiter)
    return Cochain(complex, degree, fiber, out)
