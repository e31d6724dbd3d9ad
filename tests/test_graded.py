import numpy as np
import pytest

from formlab import (
    COMPLEX_PAIR,
    DegreeError,
    DomainError,
    GradedMorphism,
    GroupoidRep,
    REAL_SCALAR,
    algebra_fiber,
    compose,
    identity,
    inverse,
    primitive_morphism,
    so3,
    u2,
)
from formlab.algebra import GroupElement, adjoint_matrix, random_group_element
from formlab.checks import groupoid_law_violations, quaternion_elements
from formlab.graded import generator_shift

from helpers import rotation

SO3_REP = GroupoidRep(algebra_fiber(so3()))


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
    assert compose(primitive_morphism(e, 1), m).matches(m)
    assert compose(m, primitive_morphism(e, 0)).matches(m)


def test_inverse_laws(rng):
    e = identity("SO3")
    assert inverse(primitive_morphism(e, 0)).matches(primitive_morphism(e, 0))
    g = random_group_element(so3(), rng)
    m = primitive_morphism(g, 0)
    inv = inverse(m)
    assert (inv.source, inv.target) == (1, 0)
    assert compose(inv, m).matches(primitive_morphism(e, 0))
    assert compose(m, inv).matches(primitive_morphism(e, 1))
    round_trip = SO3_REP.matrix(inv.g) @ SO3_REP.matrix(m.g)
    assert np.max(np.abs(round_trip - np.eye(3))) <= 1e-12


def test_primitive_rejects_identity_with_shift():
    e = identity("SO3")
    assert primitive_morphism(e, 0).shift == 0
    m = GradedMorphism(e, 0, 1)
    assert m.shift != generator_shift(m.g)
    # neither a boolean nor a float is a degree, though True and 1.0 are in (0, 1)
    for source, shift in ((True, 0), (0, True), (np.False_, 0), (1.0, 0), (np.float64(1.0), 0)):
        with pytest.raises(DegreeError):
            GradedMorphism(e, source, shift)


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
    assert word.shift != generator_shift(word.g)


def test_represent_identity_and_functoriality(rng):
    e = identity("SO3")
    m = primitive_morphism(e, 1)
    assert (m.source, m.target) == (1, 1)
    assert np.allclose(SO3_REP.matrix(m.g), np.eye(3), atol=1e-14)
    for _ in range(200):
        g = random_group_element(so3(), rng)
        h = random_group_element(so3(), rng)
        s = int(rng.integers(0, 2))
        first = primitive_morphism(h, s)
        second = primitive_morphism(g, first.target)
        lhs = SO3_REP.matrix(compose(second, first).g)
        rhs = SO3_REP.matrix(second.g) @ SO3_REP.matrix(first.g)
        assert np.max(np.abs(lhs - rhs)) <= 1e-12


def test_noncommutativity_witness():
    g = rotation(0, np.pi / 2)
    h = rotation(2, np.pi / 2)
    gh = compose(primitive_morphism(g, 1), primitive_morphism(h, 0))
    hg = compose(primitive_morphism(h, 1), primitive_morphism(g, 0))
    assert np.linalg.norm(gh.g.matrix - hg.g.matrix, 2) > 0.1
    assert np.linalg.norm(adjoint_matrix(gh.g, so3()) - adjoint_matrix(hg.g, so3()), 2) > 0.1


def test_products_inverses_and_identity_are_not_revalidated(monkeypatch):
    g, h = rotation(0, 0.7), rotation(2, 1.1)
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
    compose(primitive_morphism(e, ba.target), ba)
    g.inverse() @ h
    assert checked == []


def test_composites_and_inverses_are_not_rechecked(monkeypatch):
    # their degrees follow from operands already checked; the public
    # constructor still rejects a degree outside {0, 1}
    a, b = primitive_morphism(rotation(0, 0.7), 0), primitive_morphism(rotation(2, 1.1), 1)
    checked = []
    validate = GradedMorphism.__post_init__

    def counting(self):
        checked.append((self.source, self.shift))
        validate(self)

    monkeypatch.setattr(GradedMorphism, "__post_init__", counting)
    ba, back = compose(b, a), inverse(a)
    assert checked == []
    assert (ba.source, ba.shift, ba.target) == (0, 0, 0)
    assert (back.source, back.shift, back.target) == (1, 1, 0)
    assert compose(back, a).g.is_identity()
    with pytest.raises(DegreeError):
        GradedMorphism(ba.g, 2, 0)
    assert checked == [(2, 0)]


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
