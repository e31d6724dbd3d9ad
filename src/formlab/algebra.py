"""Matrix Lie groups SO(3), U(2), U(1) and their Lie algebras.

Generators are trace-orthonormal under the pairing <X, Y> = Re tr(X^H Y),
which is the convention used everywhere downstream (for the real
antisymmetric so(3) matrices this is tr(X^T Y); the bare tr(XY) is negative
definite on antisymmetric matrices and cannot be normalized to delta_ab).
Coefficient vectors are always real; for u(2) the basis is anti-hermitian.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from ._records import record
from .errors import ConfigError, DomainError

UNITARITY_TOL = 1e-12
IDENTITY_TOL = 1e-12

_GROUP_OF_ALGEBRA = {"so3": "SO3", "u2": "U2", "u1": "U1"}
# read-only; a group's matrix size is its identity's shape
_IDENTITY_MATRIX = {
    "SO3": np.eye(3),
    "U2": np.eye(2, dtype=np.complex128),
    "U1": np.eye(1, dtype=np.complex128),
}
for _eye in _IDENTITY_MATRIX.values():
    _eye.setflags(write=False)


@record(eq=False)
class LieAlgebra:
    """A concrete matrix Lie algebra with a fixed orthonormal generator basis."""

    name: str
    generators: np.ndarray  # (dim, n, n), read-only

    def __post_init__(self):
        gens = self.generators
        gens.setflags(write=False)
        dim, n, _ = gens.shape
        # element multiplies coefficients into the flat table; _expand and
        # adjoint_matrix pair with the conjugate-transposed one
        object.__setattr__(self, "_flat", gens.reshape(dim, n * n))
        gens_h = np.ascontiguousarray(gens.conj().transpose(0, 2, 1))
        gens_h.setflags(write=False)
        object.__setattr__(self, "_gens_h", gens_h)

    @property
    def dim(self) -> int:
        return self.generators.shape[0]

    @property
    def group(self) -> str:
        return _GROUP_OF_ALGEBRA[self.name]

    def element(self, coeffs) -> AlgebraElement:
        coeffs = np.asarray(coeffs, dtype=np.float64)
        if coeffs.shape != (self.dim,):
            raise DomainError(
                f"{self.name} expects {self.dim} coefficients, got shape {coeffs.shape}"
            )
        # the product np.tensordot(coeffs, generators, axes=1) forms
        matrix = np.dot(coeffs.reshape(1, -1), self._flat).reshape(self.generators.shape[1:])
        return AlgebraElement(self, coeffs, matrix)


@record(eq=False)
class AlgebraElement:
    """An algebra element as real coefficients over the generator basis."""

    algebra: LieAlgebra
    coeffs: np.ndarray
    matrix: np.ndarray

    def __post_init__(self):
        self.coeffs.setflags(write=False)
        self.matrix.setflags(write=False)


@record(eq=False)
class GroupElement:
    """An orthogonal/unitary matrix, validated once where it enters: the
    public constructor checks it; products, inverses and identity() come
    from _trusted.  is_identity is measured once, when the element is made.
    """

    group: str
    matrix: np.ndarray

    # every test reads "not x <= tol", so nan and overflow fail it quietly
    @np.errstate(over="ignore", invalid="ignore")
    def __post_init__(self):
        eye = _IDENTITY_MATRIX.get(self.group)
        if eye is None:
            raise DomainError(f"unknown group {self.group!r}")
        m = np.asarray(self.matrix)
        if m.shape != eye.shape:
            n = len(eye)
            raise DomainError(f"{self.group} expects a {n}x{n} matrix, got {m.shape}")
        m = np.array(m, dtype=np.complex128)
        if not np.isfinite(m).all():
            raise DomainError(f"{self.group} matrix has a non-finite entry")
        if self.group == "SO3":
            if not np.abs(m.imag).max() <= UNITARITY_TOL:
                raise DomainError("SO3 matrices must be real")
            m = np.array(m.real)
            if not abs(np.linalg.det(m) - 1.0) <= UNITARITY_TOL:
                raise DomainError("SO3 matrix must have determinant 1")
        defect = np.abs(m.conj().T @ m - eye).max()
        if not defect <= UNITARITY_TOL:
            raise DomainError(
                f"matrix is not in {self.group}: unitarity defect {defect:.3e}"
            )
        self._seal(m)

    @classmethod
    def _trusted(cls, group: str, m: np.ndarray) -> GroupElement:
        """An element derived from validated ones, unchecked: two factors each
        within 1e-12 of unitary give a product about 2e-12 off, and
        GradedMorphism.matches and the adjoint_invariance check measure drift."""
        elem = object.__new__(cls)
        object.__setattr__(elem, "group", group)
        elem._seal(m)
        return elem

    def _seal(self, m: np.ndarray) -> None:
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)
        # |z| >= |Re z|: a first entry whose real part is off 1 by more than
        # the tolerance settles it without measuring the whole deviation
        identity = not abs(m.item(0).real - 1.0) > IDENTITY_TOL and bool(
            np.abs(m - _IDENTITY_MATRIX[self.group]).max() <= IDENTITY_TOL
        )
        object.__setattr__(self, "_identity", identity)

    def is_identity(self) -> bool:
        return self._identity

    def inverse(self) -> GroupElement:
        return GroupElement._trusted(self.group, np.ascontiguousarray(self.matrix.conj().T))

    def __matmul__(self, other: GroupElement) -> GroupElement:
        if not isinstance(other, GroupElement):
            return NotImplemented
        if self.group != other.group:
            raise DomainError(f"cannot multiply {self.group} by {other.group}")
        return GroupElement._trusted(self.group, self.matrix @ other.matrix)


def identity(group: str) -> GroupElement:
    if group not in _IDENTITY_MATRIX:
        raise DomainError(f"unknown group {group!r}")
    return GroupElement._trusted(group, _IDENTITY_MATRIX[group])


def _levi_civita() -> np.ndarray:
    eps = np.zeros((3, 3, 3))
    eps[0, 1, 2] = eps[1, 2, 0] = eps[2, 0, 1] = 1.0
    eps[0, 2, 1] = eps[2, 1, 0] = eps[1, 0, 2] = -1.0
    return eps


@lru_cache(maxsize=None)
def so3() -> LieAlgebra:
    """so(3) with (J_a)_bc = -eps_abc / sqrt(2), so <J_a, J_b> = delta_ab."""
    eps = _levi_civita()
    gens = np.array([-eps[a] / np.sqrt(2.0) for a in range(3)])
    return LieAlgebra("so3", gens)


@lru_cache(maxsize=None)
def u2() -> LieAlgebra:
    """u(2) with anti-hermitian basis i/sqrt(2) * {1, sigma_x, sigma_y, sigma_z}."""
    sigma = [
        np.eye(2, dtype=np.complex128),
        np.array([[0, 1], [1, 0]], dtype=np.complex128),
        np.array([[0, -1j], [1j, 0]], dtype=np.complex128),
        np.array([[1, 0], [0, -1]], dtype=np.complex128),
    ]
    gens = np.array([1j * s / np.sqrt(2.0) for s in sigma])
    return LieAlgebra("u2", gens)


@lru_cache(maxsize=None)
def u1() -> LieAlgebra:
    return LieAlgebra("u1", np.array([[[1j]]]))


def algebra_by_name(name: str) -> LieAlgebra:
    # a tuple test, not a dict lookup: a JSON list or object is unknown, not unhashable
    if name not in ("so3", "u2", "u1"):
        raise ConfigError(f"unknown algebra {name!r}")
    return {"so3": so3, "u2": u2, "u1": u1}[name]()


def _same_algebra(x: AlgebraElement, y: AlgebraElement) -> None:
    if x.algebra is not y.algebra:
        raise DomainError(
            f"elements belong to different algebras ({x.algebra.name}, {y.algebra.name})"
        )


def _expand(algebra: LieAlgebra, matrix: np.ndarray) -> AlgebraElement:
    """Coefficients of a matrix that lies in the algebra by construction (a
    bracket or an adjoint image), from its pairing with each generator.  No
    residual test: the bracket_closure check measures closure."""
    return algebra.element((algebra._gens_h @ matrix).trace(axis1=1, axis2=2).real)


def bracket(x: AlgebraElement, y: AlgebraElement) -> AlgebraElement:
    """Lie bracket [x, y] = xy - yx, re-expanded in the generator basis."""
    _same_algebra(x, y)
    return _expand(x.algebra, x.matrix @ y.matrix - y.matrix @ x.matrix)


def adjoint(g: GroupElement, x: AlgebraElement) -> AlgebraElement:
    """Adjoint action Ad_g x = g x g^-1."""
    if g.group != x.algebra.group:
        raise DomainError(f"{g.group} does not act on {x.algebra.name}")
    return _expand(x.algebra, g.matrix @ x.matrix @ g.matrix.conj().T)


def pairing(x: AlgebraElement, y: AlgebraElement) -> float:
    """Ad-invariant inner product <x, y> = Re tr(x^H y); orthonormal on generators."""
    _same_algebra(x, y)
    return float((x.matrix.conj().T @ y.matrix).trace().real)


def adjoint_matrix(g: GroupElement, algebra: LieAlgebra) -> np.ndarray:
    """Matrix of Ad_g in the generator basis (real, dim x dim)."""
    if g.group != algebra.group:
        raise DomainError(f"{g.group} does not act on {algebra.name}")
    cols = g.matrix @ algebra.generators @ g.matrix.conj().T
    # entry (a, c) is trace(T_a^H Ad_g T_c), as one stacked product
    return (algebra._gens_h[:, None] @ cols[None]).trace(axis1=2, axis2=3).real


@np.errstate(over="ignore", invalid="ignore")  # a huge input gives inf or nan
def exponential(x: AlgebraElement) -> GroupElement:
    """Matrix exponential, closed form (Rodrigues for so3, eigh for u2/u1).

    Each closed form is orthogonal or unitary to rounding whenever its
    result is finite, so only finiteness is checked: a huge input overflows
    to inf or nan and is rejected.
    """
    group = x.algebra.group
    if group == "SO3":
        mat = _rodrigues(x)
    else:
        # anti-hermitian X = iH with H hermitian
        w, v = np.linalg.eigh(-1j * x.matrix)
        mat = (v * np.exp(1j * w)) @ v.conj().T
    if not np.isfinite(mat).all():
        raise DomainError(f"{group} matrix has a non-finite entry")
    return GroupElement._trusted(group, mat)


_SQRT2 = math.sqrt(2.0)


def _rodrigues(x: AlgebraElement) -> np.ndarray:
    # with (J_a)_bc = -eps_abc/sqrt(2), x is the cross-product matrix of coeffs/sqrt(2);
    # sqrt(c.c) is np.linalg.norm(c), bit for bit
    a = x.matrix
    theta = math.sqrt(x.coeffs.dot(x.coeffs)) / _SQRT2
    if theta < 1e-4:
        t2 = theta * theta
        s = 1.0 - t2 / 6.0 + t2 * t2 / 120.0
        c = 0.5 - t2 / 24.0 + t2 * t2 / 720.0
    else:
        s = np.sin(theta) / theta
        c = (1.0 - np.cos(theta)) / (theta * theta)
    return _IDENTITY_MATRIX["SO3"] + s * a + c * (a @ a)


def random_element(algebra: LieAlgebra, rng: np.random.Generator) -> AlgebraElement:
    return algebra.element(rng.standard_normal(algebra.dim))


def random_group_element(algebra: LieAlgebra, rng: np.random.Generator) -> GroupElement:
    return exponential(random_element(algebra, rng))
