import numpy as np
import pytest

from formlab import (
    COMPLEX_PAIR,
    DegreeError,
    DomainError,
    GradedMorphism,
    GradedValue,
    GroupoidRep,
    REAL_SCALAR,
    act,
    algebra_fiber,
    compose,
    identity,
    identity_morphism,
    inverse,
    primitive_morphism,
    represent,
    so3,
    so3_rotation,
    u2,
)
from formlab.algebra import GroupElement, adjoint_matrix, random_element, random_group_element
from formlab.checks import groupoid_law_violations, quaternion_elements

SO3_REP = GroupoidRep(algebra_fiber(so3()))


def test_identity_acts_trivially(rng):
    e = identity("SO3")
    v = GradedValue(0, rng.standard_normal(3))
    out = act(identity_morphism(e, 0), v, SO3_REP)
    assert out.degree == 0
    assert np.allclose(out.value, v.value, atol=1e-14)


def test_action_shifts_degree_and_applies_adjoint(rng):
    g = random_group_element(so3(), rng)
    v = rng.standard_normal(3)
    out = act(primitive_morphism(g, 0), GradedValue(0, v), SO3_REP)
    assert out.degree == 1
    assert np.allclose(out.value, adjoint_matrix(g, so3()) @ v, atol=1e-14)


def test_action_rejects_wrong_source_degree(rng):
    g = random_group_element(so3(), rng)
    with pytest.raises(DegreeError):
        act(primitive_morphism(g, 0), GradedValue(1, rng.standard_normal(3)), SO3_REP)


def test_compose_alternating_pairs(rng):
    g = random_group_element(so3(), rng)
    h = random_group_element(so3(), rng)
    m = compose(primitive_morphism(g, 1), primitive_morphism(h, 0))
    assert (m.source, m.target) == (0, 0)
    assert np.allclose(m.g.matrix, (g @ h).matrix, atol=1e-14)
    m2 = compose(primitive_morphism(g, 0), primitive_morphism(h, 1))
    assert (m2.source, m2.target) == (1, 1)


def test_compose_same_degree_fails(rng):
    g = random_group_element(so3(), rng)
    h = random_group_element(so3(), rng)
    with pytest.raises(DegreeError):
        compose(primitive_morphism(g, 0), primitive_morphism(h, 0))
    with pytest.raises(DegreeError):
        compose(primitive_morphism(g, 1), primitive_morphism(h, 1))


def test_identity_composes_with_everything(rng):
    e = identity("SO3")
    g = random_group_element(so3(), rng)
    m = primitive_morphism(g, 0)
    assert compose(identity_morphism(e, 1), m).matches(m)
    assert compose(m, identity_morphism(e, 0)).matches(m)


def test_inverse_laws(rng):
    e = identity("SO3")
    assert inverse(identity_morphism(e, 0)).matches(identity_morphism(e, 0))
    g = random_group_element(so3(), rng)
    m = primitive_morphism(g, 0)
    inv = inverse(m)
    assert (inv.source, inv.target) == (1, 0)
    assert compose(inv, m).matches(identity_morphism(e, 0))
    assert compose(m, inv).matches(identity_morphism(e, 1))
    v = GradedValue(0, rng.standard_normal(3))
    back = act(inv, act(m, v, SO3_REP), SO3_REP)
    assert back.degree == 0
    assert np.max(np.abs(back.value - v.value)) <= 1e-12


def test_primitive_rejects_identity_with_shift():
    e = identity("SO3")
    with pytest.raises(DegreeError):
        GradedMorphism(e, 0, 1, primitive=True)


def test_composite_with_identity_element_and_odd_shift_is_not_primitive(rng):
    g = random_group_element(so3(), rng)
    h = random_group_element(so3(), rng)
    k = (h @ g).inverse()
    word = compose(
        primitive_morphism(k, 0),
        compose(primitive_morphism(h, 1), primitive_morphism(g, 0)),
    )
    # three odd letters multiplying to the identity element: an odd morphism
    # with the identity element, representable but not a generator pattern
    assert word.g.is_identity()
    assert word.shift == 1
    assert not word.primitive


def test_represent_identity_and_functoriality(rng):
    e = identity("SO3")
    rm = represent(identity_morphism(e, 1), SO3_REP)
    assert (rm.source, rm.target) == (1, 1)
    assert np.allclose(rm.matrix, np.eye(3), atol=1e-14)
    for _ in range(200):
        g = random_group_element(so3(), rng)
        h = random_group_element(so3(), rng)
        s = int(rng.integers(0, 2))
        first = primitive_morphism(h, s)
        second = primitive_morphism(g, first.target)
        lhs = represent(compose(second, first), SO3_REP).matrix
        rhs = represent(second, SO3_REP).matrix @ represent(first, SO3_REP).matrix
        assert np.max(np.abs(lhs - rhs)) <= 1e-12


def test_noncommutativity_witness():
    g = so3_rotation(0, np.pi / 2)
    h = so3_rotation(2, np.pi / 2)
    gh = compose(primitive_morphism(g, 1), primitive_morphism(h, 0))
    hg = compose(primitive_morphism(h, 1), primitive_morphism(g, 0))
    assert np.linalg.norm(gh.g.matrix - hg.g.matrix, 2) > 0.1
    assert np.linalg.norm(adjoint_matrix(gh.g, so3()) - adjoint_matrix(hg.g, so3()), 2) > 0.1


def test_products_inverses_and_identity_are_not_revalidated(monkeypatch):
    g, h = so3_rotation(0, 0.7), so3_rotation(2, 1.1)
    a, b = primitive_morphism(g, 0), primitive_morphism(h, 1)
    checked = []
    validate = GroupElement.__post_init__

    def counting(self):
        checked.append(self.group)
        validate(self)

    monkeypatch.setattr(GroupElement, "__post_init__", counting)
    GroupElement("SO3", g.matrix)
    assert checked == ["SO3"]  # the public constructor still validates
    checked.clear()
    e = identity("SO3")
    ba = compose(b, a)
    compose(inverse(ba), ba)
    compose(identity_morphism(e, ba.target), ba)
    g.inverse() @ h
    assert checked == []


def test_groupoid_laws_on_quaternion_closure():
    assert groupoid_law_violations(quaternion_elements()) == 0


def _accepts_degree_mismatch(second, first):
    g = second.g @ first.g
    return GradedMorphism(g, first.source, (first.shift + second.shift) % 2)


def _drops_second_shift(second, first):
    if first.target != second.source:
        raise DegreeError("degree mismatch")
    return GradedMorphism(second.g @ first.g, first.source, first.shift)


@pytest.mark.parametrize("broken", [_accepts_degree_mismatch, _drops_second_shift])
def test_groupoid_law_check_catches_broken_compose(monkeypatch, broken):
    monkeypatch.setattr("formlab.checks.compose", broken)
    assert groupoid_law_violations(quaternion_elements()) > 0


def test_rep_homomorphism(rng):
    for algebra, fiber in [(so3(), algebra_fiber(so3())), (u2(), algebra_fiber(u2())), (u2(), COMPLEX_PAIR)]:
        rep = GroupoidRep(fiber)
        for _ in range(50):
            g = random_group_element(algebra, rng)
            h = random_group_element(algebra, rng)
            dev = np.max(np.abs(rep.matrix(g @ h) - rep.matrix(g) @ rep.matrix(h)))
            assert dev <= 1e-12


def test_rep_rejects_scalar_fiber():
    with pytest.raises(DomainError):
        GroupoidRep(REAL_SCALAR)


def test_graded_value_validation(rng):
    with pytest.raises(DegreeError):
        GradedValue(2, rng.standard_normal(3))


def test_degree_bookkeeping_fuzz(rng):
    for _ in range(500):
        algebra = so3() if rng.integers(2) else u2()
        g = random_group_element(algebra, rng)
        h = random_group_element(algebra, rng)
        s1, s2 = int(rng.integers(0, 2)), int(rng.integers(0, 2))
        first = primitive_morphism(h, s1)
        second = primitive_morphism(g, s2)
        if first.target == second.source:
            m = compose(second, first)
            assert m.target == (m.source + m.shift) % 2
        else:
            with pytest.raises(DegreeError):
                compose(second, first)
