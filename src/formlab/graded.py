"""Degree-tagged morphisms: degree-alternating group actions.

A fiber value carries a Z/2 degree; the degree-tagged value itself is
defect.ChargedOperator.  A non-identity group element acts through
degree-shifting maps (even fiber to odd and back); only the identity acts
degree-preservingly.  generator_shift is that rule, written once.  Two
actions compose only when the target degree of the first matches the source
degree of the second, so same-degree non-identity actions never compose:
that constraint is what lets a non-abelian group act through topological
operators.  Violations raise DegreeError.

Morphisms form a two-object groupoid: objects are the two degrees, a
morphism is (group element, source degree, degree shift), composition
multiplies group elements, and the primitive flag marks the generator
patterns (degree-shifting non-identity actions and the two identities).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import GroupElement, adjoint_matrix
from .calculus import FiberSpec
from .errors import DegreeError, DomainError


# two group elements whose matrices agree entrywise within this are one morphism
MATCH_TOL = 1e-12


def is_degree(value) -> bool:
    """A Z/2 degree is the integer 0 or 1; a boolean is not one, though
    True in (0, 1) holds."""
    return not isinstance(value, (bool, np.bool_)) and value in (0, 1)


@dataclass(frozen=True, eq=False)
class GradedMorphism:
    """A degree-tagged group action: source degree, parity shift, element."""

    g: GroupElement
    source: int
    shift: int
    primitive: bool = False

    def __post_init__(self):
        if not (is_degree(self.source) and is_degree(self.shift)):
            raise DegreeError("source and shift must be 0 or 1")
        if self.primitive and self.shift != generator_shift(self.g):
            if self.shift:
                raise DegreeError("the identity acts degree-preservingly")
            raise DegreeError("a primitive non-identity action must shift degree")

    @property
    def target(self) -> int:
        return (self.source + self.shift) % 2

    def matches(self, other: GradedMorphism) -> bool:
        return (
            self.source == other.source
            and self.shift == other.shift
            and self.g.group == other.g.group
            and np.abs(self.g.matrix - other.g.matrix).max() <= MATCH_TOL
        )


def generator_shift(g: GroupElement) -> int:
    """The one rule for generators: the identity keeps the degree, any other
    element shifts it."""
    return 0 if g.is_identity() else 1


def primitive_morphism(g: GroupElement, source: int) -> GradedMorphism:
    """The generator morphism of g at the given source degree; for the
    identity element, the identity morphism of that degree."""
    return GradedMorphism(g, source, generator_shift(g), primitive=True)


def compose(second: GradedMorphism, first: GradedMorphism) -> GradedMorphism:
    """second after first; defined only when first.target == second.source."""
    if second.g.group != first.g.group:
        raise DomainError("cannot compose morphisms over different groups")
    if first.target != second.source:
        raise DegreeError(
            f"cannot compose: first maps degree {first.source} to {first.target}, "
            f"second expects source degree {second.source}"
        )
    g = second.g @ first.g
    shift = (first.shift + second.shift) % 2
    return GradedMorphism(g, first.source, shift, primitive=shift == generator_shift(g))


def inverse(m: GradedMorphism) -> GradedMorphism:
    """Two-sided inverse: swaps source and target, inverts the element."""
    return GradedMorphism(
        m.g.inverse(), m.target, m.shift, primitive=m.shift == generator_shift(m.g)
    )


@dataclass(frozen=True, eq=False)
class GroupoidRep:
    """Representation of the graded morphisms on a pair of identical fibers.

    Algebra fibers use the adjoint action in the generator basis; the
    complex pair fiber uses the defining U(2) matrix.
    """

    fiber: FiberSpec

    def __post_init__(self):
        if self.fiber.kind not in ("algebra", "complex_pair"):
            raise DomainError(f"no group action on fiber kind {self.fiber.kind!r}")

    def matrix(self, g: GroupElement) -> np.ndarray:
        if self.fiber.kind == "algebra":
            return adjoint_matrix(g, self.fiber.algebra)
        if g.matrix.shape != (2, 2):
            raise DomainError("the complex pair fiber needs a 2x2 group element")
        return g.matrix


@dataclass(frozen=True, eq=False)
class RepresentedMorphism:
    """A concrete linear map with its degree bookkeeping."""

    matrix: np.ndarray
    source: int
    target: int


def represent(m: GradedMorphism, rep: GroupoidRep) -> RepresentedMorphism:
    """Functor into linear maps: composition goes to the matrix product."""
    return RepresentedMorphism(rep.matrix(m.g), m.source, m.target)
