import numpy as np
import pytest

from formlab import (
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
)
from formlab.algebra import (
    IDENTITY_TOL,
    UNITARITY_TOL,
    GroupElement,
    _expand,
    random_element,
    random_group_element,
)

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
        assert np.linalg.norm(bracket(x, x).coeffs) == 0.0
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
        bracket(j[0], bracket(j[1], j[2])).coeffs
        + bracket(j[1], bracket(j[2], j[0])).coeffs
        + bracket(j[2], bracket(j[0], j[1])).coeffs
    )
    assert np.linalg.norm(total) <= 1e-13
    for algebra in ALGEBRAS:
        x, y, z = (random_element(algebra, rng) for _ in range(3))
        total = (
            bracket(x, bracket(y, z)).coeffs
            + bracket(y, bracket(z, x)).coeffs
            + bracket(z, bracket(x, y)).coeffs
        )
        assert np.linalg.norm(total) <= 1e-12


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
        e = exponential(algebra.element(np.zeros(algebra.dim)))
        assert np.max(np.abs(e.matrix - np.eye(algebra.generators.shape[1]))) == 0.0
        x = random_element(algebra, rng)
        prod = exponential(x) @ exponential(algebra.element(-x.coeffs))
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


def test_lean_paths_match_their_reference_forms_bit_for_bit(rng):
    # element, _expand and adjoint_matrix multiply against cached generator
    # tables; each must form the same products as the direct expressions
    for algebra in ALGEBRAS:
        gens = algebra.generators
        gens_h = gens.conj().transpose(0, 2, 1)
        for _ in range(700):
            coeffs = 10.0 ** rng.uniform(-8, 8) * rng.standard_normal(algebra.dim)
            x = algebra.element(coeffs)
            assert x.matrix.tobytes() == np.tensordot(coeffs, gens, axes=1).tobytes()
            g = random_group_element(algebra, rng)
            m = g.matrix @ x.matrix @ g.matrix.conj().T
            listed = [np.trace(t.conj().T @ m).real for t in gens]
            assert _expand(algebra, m).coeffs.tobytes() == np.array(listed).tobytes()
            cols = g.matrix @ gens @ g.matrix.conj().T
            two_step = np.trace(gens_h[:, None] @ cols[None], axis1=2, axis2=3).real
            assert adjoint_matrix(g, algebra).tobytes() == two_step.tobytes()


@pytest.mark.parametrize("scale", [1e-300, 1e-5, 1.0, 1e8, 1e150])
def test_exponential_is_in_the_group_at_every_scale(rng, scale):
    # exponential checks its closed form for finiteness only; the public
    # constructor's full check must accept every result (1e-5 takes the
    # Taylor branch of Rodrigues' formula)
    for algebra in ALGEBRAS:
        n = algebra.generators.shape[1]
        for _ in range(200):
            g = exponential(algebra.element(scale * rng.standard_normal(algebra.dim)))
            assert np.max(np.abs(g.matrix.conj().T @ g.matrix - np.eye(n))) <= UNITARITY_TOL
            if g.group == "SO3":
                assert g.matrix.dtype == np.float64
                assert abs(np.linalg.det(g.matrix) - 1.0) <= UNITARITY_TOL
            assert GroupElement(g.group, np.array(g.matrix)).matrix.shape == (n, n)


def test_is_identity_is_the_deviation_test(rng):
    # _seal settles most elements from their first entry; the answer must be
    # the full max|g - 1| <= IDENTITY_TOL test
    for algebra in ALGEBRAS:
        eye = np.eye(algebra.generators.shape[1])
        for scale in (0.0, 1e-15, 1e-13, 1e-12, 1e-11, 1e-9, 1.0):
            for _ in range(100):
                g = exponential(algebra.element(scale * rng.standard_normal(algebra.dim)))
                for h in (g, g.inverse(), g @ g):
                    assert h.is_identity() == (np.max(np.abs(h.matrix - eye)) <= IDENTITY_TOL)


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
