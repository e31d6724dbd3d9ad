"""formlab: discrete exterior calculus with graded group actions on cubical tori."""

__version__ = "0.1.0"

from .algebra import (
    AlgebraElement,
    GroupElement,
    LieAlgebra,
    adjoint,
    adjoint_matrix,
    algebra_by_name,
    bracket,
    exponential,
    identity,
    pairing,
    so3,
    so3_rotation,
    u1,
    u2,
)
from .calculus import (
    COMPLEX_PAIR,
    REAL_SCALAR,
    Cochain,
    FiberSpec,
    action,
    algebra_fiber,
    apply_fiber_map,
    d,
    eom_residual,
    inner,
    integrate,
    max_norm,
    solve_free,
    star,
)
from .defect import (
    ChargedOperator,
    ConservationReport,
    DefectMove,
    DefectOperator,
    apply_defect,
    charge_eom,
    charge_trivial,
    conservation_report,
)
from .errors import (
    ConfigError,
    DegreeError,
    DomainError,
    FormlabError,
    GeometryError,
    SolverError,
)
from .graded import (
    GradedMorphism,
    GroupoidRep,
    compose,
    inverse,
    primitive_morphism,
)
from .mesh import (
    Cell,
    Chain,
    Cobordism,
    CubicalComplex,
    boundary,
    intersection_number,
    is_cycle,
    named_cycle,
)

__all__ = [name for name in dir() if not name.startswith("_")]
