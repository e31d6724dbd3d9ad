"""Exception types shared across the package, and the rule for config numbers."""


class FormlabError(Exception):
    """Base class for all errors raised by formlab."""


class DomainError(FormlabError):
    """Operands do not belong to the domain an operation requires
    (mismatched algebras, meshes, degrees of chains/cochains, ...)."""


class ConfigError(FormlabError):
    """A configuration value or file is malformed or unresolvable."""


class DegreeError(FormlabError):
    """A graded action or composition violates the degree bookkeeping
    (source/target parity mismatch)."""


class GeometryError(FormlabError):
    """A defect/charged-operator geometry pairing is not supported."""


class SolverError(FormlabError):
    """The linear solver failed to converge or the source is incompatible."""


def parse_number(kind, value, what: str):
    """int(value) or float(value), with a ConfigError naming `what`.  A
    boolean is no number; an int may be an integral float or a numeric string."""
    noun = "an integer" if kind is int else "a number"
    try:
        number = kind(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"{what} must be {noun}, got {value!r}") from exc
    if isinstance(value, bool) or (kind is int and isinstance(value, float) and number != value):
        raise ConfigError(f"{what} must be {noun}, got {value!r}")
    return number
