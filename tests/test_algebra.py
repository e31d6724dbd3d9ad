import numpy as np
import pytest

from formlab import (
    ConfigError,
    DomainError,
    adjoint,
    adjoint_matrix,
    bracket,
    exponential,
    identity,
    pairing,
    so3,
    so3_rotation,
    u1,
    u2,
    u2_from_c2,
    u2_to_c2,
)
from formlab.algebra import GroupElement, random_element, random_group_element

ALGEBRAS = [so3(), u2(), u1()]


def oracle_so3_generators():
    # independent construction from the Levi-Civita entries
    eps = np.zeros((3, 3, 3))
    for (i, j, k), s in [
        ((0, 1, 2), 1), ((1, 2, 0), 1), ((2, 0, 1), 1),
        ((0, 2, 1), -1), ((2, 1, 0), -1), ((1, 0, 2), -1),
    ]:
        eps[i, j, k] = s
    return [-eps[a] / np.sqrt(2.0) for a in range(3)]


def rotation_matrix(axis, theta):
    # closed-form rotation about a coordinate axis (Rodrigues oracle)
    c, s = np.cos(theta), np.sin(theta)
    if axis == 0:
        return np.array([[1, 0, 0], [0, c, -s], [0, s, c]])
    if axis == 1:
        return np.array([[c, 0, s], [0, 1, 0], [-s, 0, c]])
    return np.array([[c, -s, 0], [s, c, 0], [0, 0, 1]])


@pytest.mark.parametrize("algebra", ALGEBRAS, ids=lambda a: a.name)
def test_generators_trace_orthonormal(algebra):
    gens = algebra.generators
    gram = np.array([[np.trace(x.conj().T @ y) for y in gens] for x in gens])
    assert np.max(np.abs(gram - np.eye(algebra.dim))) <= 1e-12
    # so3 is a closed-form construction, exact up to one rounding
    if algebra.name == "so3":
        assert np.max(np.abs(gram - np.eye(3))) <= 1e-15


@pytest.mark.parametrize("algebra", ALGEBRAS, ids=lambda a: a.name)
def test_generators_defining_condition(algebra):
    for g in algebra.generators:
        if algebra.name == "so3":
            assert np.max(np.abs(g + g.T)) <= 1e-14
            assert np.max(np.abs(np.asarray(g).imag)) == 0.0
        else:
            assert np.max(np.abs(g + g.conj().T)) <= 1e-14


@pytest.mark.parametrize("algebra", ALGEBRAS, ids=lambda a: a.name)
def test_generator_brackets_close(algebra):
    for x in algebra.generators:
        for y in algebra.generators:
            m = x @ y - y @ x
            coeffs = np.array([np.trace(g.conj().T @ m).real for g in algebra.generators])
            recon = np.tensordot(coeffs, algebra.generators, axes=1)
            assert np.max(np.abs(m - recon)) <= 1e-12


def test_bracket_antisymmetry(rng):
    for algebra in ALGEBRAS:
        x = random_element(algebra, rng)
        assert bracket(x, x).norm() == 0.0
        y = random_element(algebra, rng)
        lhs = bracket(x, y)
        rhs = bracket(y, x)
        assert np.max(np.abs(lhs.coeffs + rhs.coeffs)) <= 1e-13


def test_bracket_j1_j2_is_j3_over_sqrt2():
    a = so3()
    j1, j2 = a.element([1, 0, 0]), a.element([0, 1, 0])
    result = bracket(j1, j2)
    # matrix-multiply oracle on independently constructed generators
    o1, o2, o3 = oracle_so3_generators()
    oracle = o1 @ o2 - o2 @ o1
    assert np.max(np.abs(result.matrix - oracle)) <= 1e-15
    multiple = np.trace(np.asarray(o3).T @ oracle)
    assert abs(multiple - 0.7071067811865476) <= 1e-15
    assert np.allclose(result.coeffs, [0.0, 0.0, 0.7071067811865476], atol=1e-15)


def test_jacobi_identity(rng):
    a = so3()
    j = [a.element(e) for e in np.eye(3)]
    total = (
        bracket(j[0], bracket(j[1], j[2]))
        + bracket(j[1], bracket(j[2], j[0]))
        + bracket(j[2], bracket(j[0], j[1]))
    )
    assert total.norm() <= 1e-13
    for algebra in ALGEBRAS:
        x, y, z = (random_element(algebra, rng) for _ in range(3))
        total = bracket(x, bracket(y, z)) + bracket(y, bracket(z, x)) + bracket(z, bracket(x, y))
        assert total.norm() <= 1e-12


def test_bracket_rejects_mixed_algebras():
    with pytest.raises(DomainError):
        bracket(so3().element([1, 0, 0]), u1().element([1.0]))


def test_adjoint_identity_and_inverse(rng):
    for algebra in ALGEBRAS:
        e = identity(algebra.group)
        x = random_element(algebra, rng)
        assert np.max(np.abs(adjoint(e, x).coeffs - x.coeffs)) <= 1e-14
        g = random_group_element(algebra, rng)
        roundtrip = adjoint(g, adjoint(g.inverse(), x))
        assert np.max(np.abs(roundtrip.coeffs - x.coeffs)) <= 1e-12


def test_adjoint_quarter_turn_sends_j1_to_j2():
    rz = so3_rotation(2, np.pi / 2)
    # oracle: conjugate the independently built generator by the literal matrix
    o = oracle_so3_generators()
    r = rotation_matrix(2, np.pi / 2)
    conj = r @ o[0] @ r.T
    assert np.max(np.abs(conj - o[1])) <= 1e-15
    result = adjoint(rz, so3().element([1, 0, 0]))
    assert np.allclose(result.coeffs, [0.0, 1.0, 0.0], atol=1e-12)


def test_adjoint_rejects_mismatched_group():
    with pytest.raises(DomainError):
        adjoint(identity("U2"), so3().element([1, 0, 0]))


def test_pairing_is_normalized_on_generators():
    a = so3()
    j1, j2 = a.element([1, 0, 0]), a.element([0, 1, 0])
    assert pairing(j1, j1) == pytest.approx(1.0, abs=1e-14)
    assert pairing(j1, j2) == pytest.approx(0.0, abs=1e-14)


def test_pairing_ad_invariance(rng):
    for algebra in ALGEBRAS:
        for _ in range(100):
            g = random_group_element(algebra, rng)
            x = random_element(algebra, rng)
            y = random_element(algebra, rng)
            dev = abs(pairing(adjoint(g, x), adjoint(g, y)) - pairing(x, y))
            assert dev <= 1e-12


def test_exponential_identities(rng):
    for algebra in ALGEBRAS:
        e = exponential(algebra.zero())
        assert np.max(np.abs(e.matrix - np.eye(algebra.generators.shape[1]))) == 0.0
        x = random_element(algebra, rng)
        prod = exponential(x) @ exponential(-x)
        assert np.max(np.abs(prod.matrix - np.eye(algebra.generators.shape[1]))) <= 1e-12


def test_exponential_matches_closed_form_rotations():
    a = so3()
    for axis in range(3):
        for theta in (0.3, np.pi / 2, 2.1, 1e-6):
            coeffs = np.zeros(3)
            coeffs[axis] = np.sqrt(2.0) * theta
            g = exponential(a.element(coeffs))
            assert np.max(np.abs(g.matrix - rotation_matrix(axis, theta))) <= 1e-13


def test_group_closure_under_products(rng):
    # products of exponentials stay in the group (products are not
    # re-validated, so the drift is measured here)
    for algebra in ALGEBRAS:
        for _ in range(50):
            g = random_group_element(algebra, rng)
            h = random_group_element(algebra, rng)
            gh = g @ h
            n = algebra.generators.shape[1]
            assert np.max(np.abs(gh.matrix.conj().T @ gh.matrix - np.eye(n))) <= 1e-11


@pytest.mark.parametrize("group", ["SO3", "U2", "U1"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(1.0, np.nan), 1e200])
def test_group_element_rejects_non_finite_and_huge_entries(group, bad):
    n = {"SO3": 3, "U2": 2, "U1": 1}[group]
    m = np.eye(n, dtype=np.complex128)
    m[-1, -1] = bad
    with pytest.raises(DomainError):
        GroupElement(group, m)


def test_exponential_of_huge_coefficients_is_rejected():
    with pytest.raises(DomainError):
        exponential(so3().element([1e300, 0.0, 0.0]))


def test_adjoint_matrix_is_homomorphism(rng):
    for algebra in (so3(), u2()):
        for _ in range(20):
            g = random_group_element(algebra, rng)
            h = random_group_element(algebra, rng)
            lhs = adjoint_matrix(g @ h, algebra)
            rhs = adjoint_matrix(g, algebra) @ adjoint_matrix(h, algebra)
            assert np.max(np.abs(lhs - rhs)) <= 1e-12


def test_u2_c2_identification_roundtrip():
    zero = u2_from_c2([0, 0])
    assert zero.norm() == 0.0
    v = np.array([0.3 - 1.2j, 0.8 + 0.5j])
    assert np.array_equal(u2_to_c2(u2_from_c2(v)), v)
    # identity convention: coefficients are the flattened real parts
    x = u2_from_c2([1, 0])
    assert np.array_equal(x.coeffs, [1.0, 0.0, 0.0, 0.0])


def test_u2_c2_with_configured_map():
    m = np.array([[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 2, 0], [0, 0, 0, 1]], dtype=float)
    v = np.array([0.5 + 2j, -1.0 + 0.25j])
    x = u2_from_c2(v, basis_map=m)
    # oracle: apply the configured matrix to (Re v1, Im v1, Re v2, Im v2)
    expected = m @ np.array([0.5, 2.0, -1.0, 0.25])
    assert np.array_equal(x.coeffs, expected)
    assert np.max(np.abs(u2_to_c2(x, basis_map=m) - v)) <= 1e-13


def test_u2_c2_rejects_singular_map():
    with pytest.raises(ConfigError):
        u2_from_c2([1, 0], basis_map=np.zeros((4, 4)))
