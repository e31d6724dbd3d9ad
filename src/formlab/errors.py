"""Exception types shared across the package, and the rules for config numbers, objects and arrays."""


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


def parse_object(value, what: str, required=(), optional=()):
    """`value` if it is a JSON object with every key of `required` and no key
    outside `required` and `optional`, else a ConfigError naming `what` and the key."""
    if not isinstance(value, dict):
        raise ConfigError(f"{what} must be an object, got {value!r}")
    for key in value:
        if key not in required and key not in optional:
            raise ConfigError(f"{what} has an unknown key {key!r}")
    for key in required:
        if key not in value:
            raise ConfigError(f"{what} needs a {key!r} key")
    return value


def parse_list(value, what: str, length=None):
    """`value` if it is a JSON array, of `length` entries where the schema
    fixes one, else a ConfigError naming `what`.  A string is no array."""
    if not isinstance(value, list):
        raise ConfigError(f"{what} must be a list, got {value!r}")
    if length is not None and len(value) != length:
        raise ConfigError(f"{what} must have {length} entries, got {len(value)}")
    return value


def parse_integers(value, what: str, length=None) -> list:
    """A JSON array of integers: `parse_list`, then `parse_number` on each entry."""
    return [parse_number(int, v, what) for v in parse_list(value, what, length)]
