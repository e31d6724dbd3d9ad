"""Record classes: frozen, positional value objects.

`record` gives a class with annotated fields the methods formlab's record
types share.  It sets them from closures, where `dataclasses.dataclass`
exec-compiles each method as the module imports, which was most of
formlab's import time past numpy.

- `__init__` takes exactly the fields, by position; a wrong count raises one
  TypeError that names the class and its fields, and keywords are refused.
  It ends by calling `self.__post_init__()` when the class defines one.  The
  call goes through the instance, so a `__post_init__` replaced on the class
  after it is built is the one that runs.
- `__repr__` is `Name(field=value, ...)` over every field.
- With eq (the default), `__eq__` compares the fields that take part in
  comparisons, as one tuple, for instances of the same class, and
  `__hash__` hashes that tuple.  Without eq, instances compare and hash by
  identity.
- Assignment and deletion of an attribute raise AttributeError.  A
  `__post_init__` that derives an attribute sets it with
  `object.__setattr__`.

A field has no default: every caller passes every field.
"""


class _Field:
    __slots__ = ("compare",)

    def __init__(self, compare):
        self.compare = compare


def field(*, compare: bool):
    """A field left out of equality and hashing when `compare` is False."""
    return _Field(compare)


def record(*, eq=True):
    """Decorate a class with annotated fields as a record; see the module."""

    def build(cls):
        names = tuple(cls.__dict__["__annotations__"])
        compared = []
        for name in names:
            spec = cls.__dict__.get(name)
            if isinstance(spec, _Field):
                delattr(cls, name)
            elif name in cls.__dict__:
                raise TypeError(f"{cls.__qualname__}.{name}: a record field takes no default")
            if getattr(spec, "compare", True):
                compared.append(name)
        _set_methods(cls, names, tuple(compared), eq)
        return cls

    return build


def _set_methods(cls, names, compared, eq):
    n = len(names)
    post_init = hasattr(cls, "__post_init__")
    signature = f"{cls.__qualname__}({', '.join(names)})"

    def __init__(self, *args):
        if len(args) != n:
            raise TypeError(f"{signature} takes {n} positional arguments, got {len(args)}")
        # straight into the instance dict: __setattr__ refuses
        self.__dict__.update(zip(names, args))
        if post_init:
            self.__post_init__()

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in names)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    methods = {
        "__init__": __init__, "__repr__": __repr__,
        "__setattr__": __setattr__, "__delattr__": __delattr__,
    }
    if eq:

        def key(obj):
            return tuple([getattr(obj, name) for name in compared])

        def __eq__(self, other):
            if other.__class__ is self.__class__:
                return key(self) == key(other)
            return NotImplemented

        def __hash__(self):
            return hash(key(self))

        methods["__eq__"] = __eq__
        methods["__hash__"] = __hash__
    for attr, method in methods.items():
        method.__qualname__ = f"{cls.__qualname__}.{attr}"
        setattr(cls, attr, method)
