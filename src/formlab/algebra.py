"""Matrix Lie groups SO(3), U(2), U(1) and their Lie algebras.

Generators are trace-orthonormal under the pairing <X, Y> = Re tr(X^H Y),
which is the convention used everywhere downstream (for the real
antisymmetric so(3) matrices this is tr(X^T Y); the bare tr(XY) is negative
definite on antisymmetric matrices and cannot be normalized to delta_ab).
Coefficient vectors are always real; for u(2) the basis is anti-hermitian.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ConfigError, DomainError

UNITARITY_TOL = 1e-12
IDENTITY_TOL = 1e-12

_GROUP_OF_ALGEBRA = {"so3": "SO3", "u2": "U2", "u1": "U1"}
_MATRIX_DIM_OF_GROUP = {"SO3": 3, "U2": 2, "U1": 1}


def _identity_matrix(group: str) -> np.ndarray:
    n = _MATRIX_DIM_OF_GROUP[group]
    eye = np.eye(n) if group == "SO3" else np.eye(n, dtype=np.complex128)
    eye.setflags(write=False)
    return eye


_IDENTITY_MATRIX = {group: _identity_matrix(group) for group in _MATRIX_DIM_OF_GROUP}


@dataclass(frozen=True, eq=False)
class LieAlgebra:
    """A concrete matrix Lie algebra with a fixed orthonormal generator basis."""

    name: str
    generators: np.ndarray  # (dim, n, n), read-only
    field: str  # "real" | "complex" matrix entries

    def __post_init__(self):
        self.generators.setflags(write=False)

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
        matrix = np.tensordot(coeffs, self.generators, axes=1)
        return AlgebraElement(self, coeffs, matrix)

    def zero(self) -> AlgebraElement:
        return self.element(np.zeros(self.dim))


@dataclass(frozen=True, eq=False)
class AlgebraElement:
    """An algebra element as real coefficients over the generator basis."""

    algebra: LieAlgebra
    coeffs: np.ndarray
    matrix: np.ndarray

    def __post_init__(self):
        self.coeffs.setflags(write=False)
        self.matrix.setflags(write=False)

    def __add__(self, other: AlgebraElement) -> AlgebraElement:
        _same_algebra(self, other)
        return self.algebra.element(self.coeffs + other.coeffs)

    def __sub__(self, other: AlgebraElement) -> AlgebraElement:
        _same_algebra(self, other)
        return self.algebra.element(self.coeffs - other.coeffs)

    def __neg__(self) -> AlgebraElement:
        return self.algebra.element(-self.coeffs)

    def __rmul__(self, scalar: float) -> AlgebraElement:
        return self.algebra.element(float(scalar) * self.coeffs)

    def norm(self) -> float:
        return float(np.linalg.norm(self.coeffs))


@dataclass(frozen=True, eq=False)
class GroupElement:
    """An orthogonal/unitary matrix, validated once where it enters: the
    public constructor checks it; products, inverses and identity() come
    from _trusted.  is_identity compares a deviation measured once.
    """

    group: str
    matrix: np.ndarray

    # every test reads "not x <= tol", so nan and overflow fail it quietly
    @np.errstate(over="ignore", invalid="ignore")
    def __post_init__(self):
        n = _MATRIX_DIM_OF_GROUP.get(self.group)
        if n is None:
            raise DomainError(f"unknown group {self.group!r}")
        m = np.asarray(self.matrix)
        if m.shape != (n, n):
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
        defect = np.abs(m.conj().T @ m - _IDENTITY_MATRIX[self.group]).max()
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
        deviation = float(np.abs(m - _IDENTITY_MATRIX[self.group]).max())
        object.__setattr__(self, "_identity_deviation", deviation)

    def is_identity(self) -> bool:
        return self._identity_deviation <= IDENTITY_TOL

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
    return LieAlgebra("so3", gens, "real")


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
    return LieAlgebra("u2", gens, "complex")


@lru_cache(maxsize=None)
def u1() -> LieAlgebra:
    return LieAlgebra("u1", np.array([[[1j]]]), "complex")


def algebra_by_name(name: str) -> LieAlgebra:
    try:
        return {"so3": so3, "u2": u2, "u1": u1}[name]()
    except KeyError:
        raise ConfigError(f"unknown algebra {name!r}") from None


def _same_algebra(x: AlgebraElement, y: AlgebraElement) -> None:
    if x.algebra is not y.algebra:
        raise DomainError(
            f"elements belong to different algebras ({x.algebra.name}, {y.algebra.name})"
        )


def _expand(algebra: LieAlgebra, matrix: np.ndarray) -> AlgebraElement:
    """Coefficients of a matrix that lies in the algebra by construction (a
    bracket or an adjoint image), from its pairing with each generator.  No
    residual test: the bracket_closure check measures closure."""
    return algebra.element([np.trace(g.conj().T @ matrix).real for g in algebra.generators])


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
    return float(np.trace(x.matrix.conj().T @ y.matrix).real)


def adjoint_matrix(g: GroupElement, algebra: LieAlgebra) -> np.ndarray:
    """Matrix of Ad_g in the generator basis (real, dim x dim)."""
    if g.group != algebra.group:
        raise DomainError(f"{g.group} does not act on {algebra.name}")
    gens = algebra.generators
    cols = g.matrix @ gens @ g.matrix.conj().T
    # entry (a, c) is trace(T_a^H Ad_g T_c), as one stacked product
    gens_h = gens.conj().transpose(0, 2, 1)
    return np.trace(gens_h[:, None] @ cols[None], axis1=2, axis2=3).real


@np.errstate(over="ignore", invalid="ignore")  # GroupElement rejects what overflows
def exponential(x: AlgebraElement) -> GroupElement:
    """Matrix exponential, closed form (Rodrigues for so3, eigh for u2/u1)."""
    if x.algebra.name == "so3":
        return GroupElement("SO3", _rodrigues(x))
    # anti-hermitian X = iH with H hermitian
    h = -1j * x.matrix
    w, v = np.linalg.eigh(h)
    mat = (v * np.exp(1j * w)) @ v.conj().T
    return GroupElement(x.algebra.group, mat)


def _rodrigues(x: AlgebraElement) -> np.ndarray:
    # with (J_a)_bc = -eps_abc/sqrt(2), x is the cross-product matrix of coeffs/sqrt(2)
    a = x.matrix
    theta = float(np.linalg.norm(x.coeffs)) / np.sqrt(2.0)
    if theta < 1e-4:
        t2 = theta * theta
        s = 1.0 - t2 / 6.0 + t2 * t2 / 120.0
        c = 0.5 - t2 / 24.0 + t2 * t2 / 720.0
    else:
        s = np.sin(theta) / theta
        c = (1.0 - np.cos(theta)) / (theta * theta)
    return np.eye(3) + s * a + c * (a @ a)


def so3_rotation(axis: int, angle: float) -> GroupElement:
    """Rotation by `angle` about coordinate axis 0, 1 or 2."""
    coeffs = np.zeros(3)
    coeffs[axis] = np.sqrt(2.0) * angle
    return exponential(so3().element(coeffs))


def c2_basis_map(basis_map) -> np.ndarray:
    if basis_map is None:
        return np.eye(4)
    m = np.asarray(basis_map, dtype=np.float64)
    if m.shape != (4, 4):
        raise ConfigError(f"u(2) <-> C^2 map must be 4x4, got {m.shape}")
    if abs(np.linalg.det(m)) < 1e-12:
        raise ConfigError("u(2) <-> C^2 map is not invertible")
    return m


def u2_from_c2(v, basis_map=None) -> AlgebraElement:
    """Identify a pair of complex numbers with a u(2) element.

    The real vector (Re v1, Im v1, Re v2, Im v2) is sent through the
    configured invertible 4x4 map (identity by default) to a coefficient
    vector over the u(2) generators.
    """
    m = c2_basis_map(basis_map)
    v = np.asarray(v, dtype=np.complex128)
    if v.shape != (2,):
        raise DomainError(f"expected a pair of complex numbers, got shape {v.shape}")
    r = np.array([v[0].real, v[0].imag, v[1].real, v[1].imag])
    return u2().element(m @ r)


def u2_to_c2(x: AlgebraElement, basis_map=None) -> np.ndarray:
    """Inverse of u2_from_c2."""
    if x.algebra.name != "u2":
        raise DomainError("u2_to_c2 expects a u(2) element")
    m = c2_basis_map(basis_map)
    r = np.linalg.solve(m, x.coeffs)
    return np.array([r[0] + 1j * r[1], r[2] + 1j * r[3]])


def random_element(algebra: LieAlgebra, rng: np.random.Generator, scale: float = 1.0) -> AlgebraElement:
    return algebra.element(scale * rng.standard_normal(algebra.dim))


def random_group_element(algebra: LieAlgebra, rng: np.random.Generator, scale: float = 1.0) -> GroupElement:
    return exponential(random_element(algebra, rng, scale))
