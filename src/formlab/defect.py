"""Charged operators, topological defect operators, and conserved charges.

A charged operator is a field cochain integrated over a cycle.  A defect
operator carries a group element, a degree tag and a cycle support; moving
it through a cobordism acts on a charged operator once per signed
transversal crossing of the charged support with the swept region, through
the graded representation.  Non-crossing moves act as the identity, bit for
bit, which is the discrete form of the operators being topological.

Supported geometry: the sweep region must be complementary to the charged
support, i.e. defects of dimension q = d - p - 1 with q >= p >= 1 acting on
p-dimensional charged operators.  Anything else raises GeometryError.

The charges of a p-form field psi below the top degree integrate its field
strength d psi ('eom', over a (p+1)-chain) and its dual star d psi
('trivial', over a (d-p-1)-cycle on a torus); `d` and `star` keep their
result on the field, so every charge of one field shares one of each.  The
rules of a charge or defect request that need no field values
(`check_charge`, `check_sweep`) are what config loading checks, so every
command rejects the same requests.
"""

from __future__ import annotations

import numpy as np

from ._records import record
from .algebra import GroupElement
from .calculus import Cochain, action, apply_fiber_map, d, eom_residual, integrate, max_norm, star
from .errors import DegreeError, DomainError, GeometryError
from .graded import GroupoidRep, generator_shift, is_degree
from .mesh import Chain, Cobordism, _unit_chain, intersection_number, is_cycle


@record(eq=False)
class ChargedOperator:
    """A field cochain integrated over a p-cycle, with a degree tag.

    `observable`, the integral, is set by `__post_init__`: it is never an
    argument."""

    support: Chain
    field: Cochain
    degree: int

    def __post_init__(self):
        if self.field.complex is not self.support.complex:
            raise DomainError("field and support must live on the same complex")
        _check_charged(self.degree, self.support, self.field.degree)
        object.__setattr__(self, "observable", integrate(self.field, self.support))


def _check_charged(degree: int, support: Chain, field_degree: int) -> None:
    if not is_degree(degree):
        raise DegreeError(f"charged-operator degree must be 0 or 1, got {degree}")
    if field_degree != support.degree:
        raise DomainError("field degree must match the support degree")
    if not is_cycle(support):
        raise DomainError("charged-operator supports must be cycles")


@record(eq=False)
class DefectOperator:
    """A group element attached to a degree tag and a q-cycle support."""

    g: GroupElement
    degree: int
    support: Chain

    def __post_init__(self):
        if not is_degree(self.degree):
            raise DegreeError(f"defect degree must be 0 or 1, got {self.degree}")
        if not is_cycle(self.support):
            raise DomainError("defect supports must be cycles")


@record(eq=False)
class DefectMove:
    """A defect operator together with the cobordism sweeping its support."""

    operator: DefectOperator
    cobordism: Cobordism

    def __post_init__(self):
        if self.cobordism.source != self.operator.support:
            raise DomainError("the cobordism must start at the defect support")


def apply_defect(
    defect: DefectOperator,
    charged: ChargedOperator,
    move: DefectMove,
    rep: GroupoidRep,
) -> ChargedOperator:
    """Sweep a defect past a charged operator.

    The result is the charged operator with the group action applied once
    per signed crossing of its support with the swept region, and with the
    degree flipped once per crossing (for non-identity elements).  Zero
    crossings return the input object unchanged.
    """
    if move.operator is not defect:
        raise DomainError("the move must belong to the defect being applied")
    _check_crossing(defect, charged.degree, charged.support)
    crossings = intersection_number(charged.support, move.cobordism.filling)
    if crossings == 0:
        return charged
    # a negative crossing acts by the group's exact inverse, not by a LAPACK
    # inverse of its matrix
    g = defect.g if crossings > 0 else defect.g.inverse()
    matrix = np.linalg.matrix_power(rep.matrix(g), abs(crossings))
    new_field = apply_fiber_map(charged.field, matrix)
    flip = crossings % 2 * generator_shift(defect.g)
    return ChargedOperator(charged.support, new_field, charged.degree ^ flip)


def _check_crossing(defect: DefectOperator, degree: int, support: Chain) -> None:
    if defect.degree != degree:
        raise DegreeError(
            f"a degree-{defect.degree} defect cannot act on a degree-{degree} charged operator"
        )
    cx = support.complex
    if defect.support.complex is not cx:
        raise DomainError("defect and charged operator must share a complex")
    p = support.degree
    q = defect.support.degree
    if q != cx.d - p - 1 or not q >= p >= 1:
        raise GeometryError(
            f"unsupported defect geometry: p={p}, q={q} on a {cx.d}-dimensional mesh"
        )


def check_sweep(move: DefectMove, degree: int, support: Chain, field_degree: int) -> None:
    """Raise unless `apply_defect` can sweep the move's defect past a charged
    operator of this degree and support, on a field of field_degree."""
    _check_charged(degree, support, field_degree)
    _check_crossing(move.operator, degree, support)


def charge_eom(psi: Cochain, sigma2: Chain):
    """Charge of the dynamical current: the field strength integrated over a
    (p+1)-chain; depends only on the homology class (exactly, for any field)."""
    check_charge("eom", psi.degree, sigma2)
    return integrate(d(psi), sigma2)


def charge_trivial(psi: Cochain, sigma1: Chain):
    """Charge of the trivial current: star of the field strength integrated
    over a (d-p-1)-cycle; homologous supports agree on shell."""
    check_charge("trivial", psi.degree, sigma1)
    return integrate(star(d(psi)), sigma1)


def charges_apply(psi: Cochain) -> bool:
    """Whether the sample charges and the charge checks apply to a field:
    one below the top degree on a torus."""
    return psi.complex.topology == "torus" and psi.degree < psi.complex.d


def check_charge(kind: str, field_degree: int, support: Chain) -> None:
    """Raise unless a charge of this kind can be taken over the support from a
    field of degree p below the top degree d: a degree-(p+1) support for
    'eom', a (d-p-1)-cycle on a torus for 'trivial'."""
    cx = support.complex
    if not field_degree < cx.d:
        raise DomainError(f"charges need a field below the top degree {cx.d}, got degree {field_degree}")
    want = field_degree + 1 if kind == "eom" else cx.d - field_degree - 1
    if support.degree != want:
        raise DomainError(f"expected a degree-{want} chain, got degree {support.degree}")
    if kind == "trivial":
        if not is_cycle(support):
            raise DomainError(f"the trivial charge needs a {want}-cycle support")
        if cx.topology != "torus":
            raise GeometryError("the trivial charge needs the Hodge star, which only tori have")


@record(eq=False)
class ConservationReport:
    """Conservation diagnostics for a field configuration."""

    trivial_current_norm: float | None
    dynamical_current_norm: float | None
    action: float | None
    charges: dict


def conservation_report(psi: Cochain) -> ConservationReport:
    """Report d(d psi) and d star d psi max-norms, the action and, where
    `charges_apply`, per set B of d - p - 1 axes the eom charge over the
    sub-torus normal to B and the trivial charge over the one on B, at offset 0."""
    cx, p = psi.complex, psi.degree
    if p >= cx.d:
        return ConservationReport(None, None, None, {})
    trivial = max_norm(d(d(psi))) if p + 2 <= cx.d else None
    # the residual d star d psi needs the reindexing star, which only exists on tori
    dynamical = max_norm(eom_residual(psi)) if cx.topology == "torus" else None
    charges = {}
    if charges_apply(psi):
        for axes in cx.axis_subsets(cx.d - p - 1):
            others = tuple(i for i in range(cx.d) if i not in axes)
            name = "".join(map(str, axes))
            normal = _unit_chain(cx, others, [0] * len(axes), "offset 0")
            charges[f"q_eom_plane_normal{name}"] = charge_eom(psi, normal)
            along = _unit_chain(cx, axes, [0] * len(others), "offset 0")
            charges[f"q_trivial_loop_axis{name}"] = charge_trivial(psi, along)
    return ConservationReport(trivial, dynamical, action(psi), charges)
