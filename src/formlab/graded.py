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
multiplies group elements, and a morphism is primitive when it has a
generator's pattern (degree-shifting non-identity actions and the two
identities).  The matrix of a morphism is GroupoidRep.matrix of its element.
"""

from __future__ import annotations

import numpy as np

from ._records import record
from .algebra import GroupElement, adjoint_matrix
from .calculus import FiberSpec
from .errors import DegreeError, DomainError


# two group elements whose matrices agree entrywise within this are one morphism
MATCH_TOL = 1e-12


def is_degree(value) -> bool:
    """A Z/2 degree is the integer 0 or 1; a boolean or a float is not one,
    though True and 1.0 are both in (0, 1)."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool) and value in (0, 1)


@record(eq=False)
class GradedMorphism:
    """A degree-tagged group action: source degree, parity shift, element."""

    g: GroupElement
    source: int
    shift: int

    def __post_init__(self):
        if not (is_degree(self.source) and is_degree(self.shift)):
            raise DegreeError("source and shift must be 0 or 1")

    @classmethod
    def _trusted(cls, g: GroupElement, source: int, shift: int) -> GradedMorphism:
        """A morphism whose degrees follow from checked ones, unchecked, as
        GroupElement._trusted is for products."""
        m = object.__new__(cls)
        m.__dict__.update(g=g, source=source, shift=shift)
        return m

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
    return GradedMorphism(g, source, generator_shift(g))


def compose(second: GradedMorphism, first: GradedMorphism) -> GradedMorphism:
    """second after first; defined only when first.target == second.source."""
    if second.g.group != first.g.group:
        raise DomainError("cannot compose morphisms over different groups")
    if first.target != second.source:
        raise DegreeError(
            f"cannot compose: first maps degree {first.source} to {first.target}, "
            f"second expects source degree {second.source}"
        )
    return GradedMorphism._trusted(second.g @ first.g, first.source, (first.shift + second.shift) % 2)


def inverse(m: GradedMorphism) -> GradedMorphism:
    """Two-sided inverse: swaps source and target, inverts the element."""
    return GradedMorphism._trusted(m.g.inverse(), m.target, m.shift)


@record(eq=False)
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

