"""Charged operators, topological defect operators, and conserved charges.

A charged operator is a field cochain integrated over a cycle.  A defect
operator carries a group element, a degree tag and a cycle support; moving
it through a cobordism acts on a charged operator once per signed
transversal crossing of the charged support with the swept region, through
the graded representation.  Non-crossing moves act as the identity, bit for
bit, which is the discrete form of the operators being topological.

Supported geometry: the sweep region must be complementary to the charged
support, i.e. defects of dimension q = d - p - 1 with q >= p >= 1 acting on
p-dimensional charged operators (on the meshes shipped here: d = 3 with
p = q = 1).  Anything else raises GeometryError.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .algebra import GroupElement
from .calculus import Cochain, apply_fiber_map, d, inner, integrate, max_norm, star
from .errors import DegreeError, DomainError, GeometryError
from .graded import GroupoidRep, generator_shift, is_degree
from .mesh import Chain, Cobordism, intersection_number, is_cycle, named_cycle


@dataclass(frozen=True, eq=False)
class ChargedOperator:
    """A field cochain integrated over a p-cycle, with a degree tag."""

    support: Chain
    field: Cochain
    degree: int
    observable: object = field(init=False)

    def __post_init__(self):
        if not is_degree(self.degree):
            raise DegreeError(f"charged-operator degree must be 0 or 1, got {self.degree}")
        if self.field.complex is not self.support.complex:
            raise DomainError("field and support must live on the same complex")
        if self.field.degree != self.support.degree:
            raise DomainError("field degree must match the support degree")
        if not is_cycle(self.support):
            raise DomainError("charged-operator supports must be cycles")
        object.__setattr__(self, "observable", integrate(self.field, self.support))


@dataclass(frozen=True, eq=False)
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


@dataclass(frozen=True, eq=False)
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
    if defect.degree != charged.degree:
        raise DegreeError(
            f"a degree-{defect.degree} defect cannot act on a "
            f"degree-{charged.degree} charged operator"
        )
    cx = charged.support.complex
    if defect.support.complex is not cx:
        raise DomainError("defect and charged operator must share a complex")
    p = charged.support.degree
    q = defect.support.degree
    if q != cx.d - p - 1 or not q >= p >= 1:
        raise GeometryError(
            f"unsupported defect geometry: p={p}, q={q} on a {cx.d}-dimensional mesh"
        )
    crossings = intersection_number(charged.support, move.cobordism.filling)
    if crossings == 0:
        return charged
    matrix = np.linalg.matrix_power(rep.matrix(defect.g), crossings)
    new_field = apply_fiber_map(charged.field, matrix)
    flip = crossings % 2 * generator_shift(defect.g)
    return ChargedOperator(charged.support, new_field, charged.degree ^ flip)


class FieldStrength:
    """The field strength d psi of a field and its Hodge dual star d psi, each
    computed on first use and then shared by every charge taken from them."""

    def __init__(self, psi: Cochain):
        self.psi = psi

    @cached_property
    def dpsi(self) -> Cochain:
        return d(self.psi)

    @cached_property
    def star_dpsi(self) -> Cochain:
        return star(self.dpsi)

    def charge(self, kind: str, support: Chain):
        """The 'eom' charge (d psi over a 2-chain) or the 'trivial' charge
        (star d psi over a 1-cycle) of the field."""
        if kind == "eom":
            _check_charge_args(self.psi, support, 2)
            return integrate(self.dpsi, support)
        _check_charge_args(self.psi, support, 1)
        if not is_cycle(support):
            raise DomainError("the trivial charge needs a 1-cycle support")
        return integrate(self.star_dpsi, support)


def charge_eom(psi: Cochain, sigma2: Chain):
    """Charge of the dynamical current: the field strength integrated over a
    2-chain; depends only on the homology class (exactly, for any field)."""
    return FieldStrength(psi).charge("eom", sigma2)


def charge_trivial(psi: Cochain, sigma1: Chain):
    """Charge of the trivial current: star of the field strength integrated
    over a 1-cycle; homologous supports agree on shell."""
    return FieldStrength(psi).charge("trivial", sigma1)


def charges_apply(psi: Cochain) -> bool:
    """Whether the sample charges and the charge checks apply to a field:
    a 1-form on a 3-dimensional torus."""
    cx = psi.complex
    return cx.d == 3 and cx.topology == "torus" and psi.degree == 1


def _check_charge_args(psi: Cochain, sigma: Chain, sigma_degree: int):
    if psi.complex.d != 3:
        raise DomainError("charges are defined on 3-dimensional meshes")
    if psi.degree != 1:
        raise DomainError(f"charges need a 1-form field, got degree {psi.degree}")
    if sigma.degree != sigma_degree:
        raise DomainError(
            f"expected a degree-{sigma_degree} chain, got degree {sigma.degree}"
        )
    if sigma.complex is not psi.complex:
        raise DomainError("field and support must live on the same complex")


@dataclass(frozen=True, eq=False)
class ConservationReport:
    """Conservation diagnostics for a field configuration."""

    trivial_current_norm: float | None
    dynamical_current_norm: float | None
    action: float | None
    charges: dict = field(default_factory=dict)


def conservation_report(psi: Cochain) -> ConservationReport:
    """Report d(d psi) and d star d psi max-norms, the action, and sample
    charges over the coordinate planes and axis loops (3d, 1-form fields).

    d psi is computed once, and star d psi once on a torus."""
    cx = psi.complex
    if psi.degree >= cx.d:
        return ConservationReport(None, None, None)
    strength = FieldStrength(psi)
    dpsi = strength.dpsi
    trivial = max_norm(d(dpsi)) if psi.degree + 2 <= cx.d else None
    # the residual d star d psi needs the reindexing star, which only exists on tori
    dynamical = max_norm(d(strength.star_dpsi)) if cx.topology == "torus" else None
    act = inner(dpsi, dpsi).real
    charges = {}
    if charges_apply(psi):
        for axis in range(3):
            plane = named_cycle(cx, {"kind": "plane", "normal": axis, "offset": 0})
            charges[f"q_eom_plane_normal{axis}"] = strength.charge("eom", plane)
            offsets = [0] * (cx.d - 1)
            loop = named_cycle(cx, {"kind": "loop", "axis": axis, "offsets": offsets})
            charges[f"q_trivial_loop_axis{axis}"] = strength.charge("trivial", loop)
    return ConservationReport(trivial, dynamical, act, charges)
