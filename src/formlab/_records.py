"""Record classes: the part of `dataclasses.dataclass` that formlab uses.

`dataclass` builds each class by exec-compiling its generated methods one at
a time, which was most of formlab's import time past numpy.  `record` sets
the same methods from closures:

- `__init__` takes the fields in order, with their defaults and default
  factories, skips `init=False` fields and ends by calling
  `self.__post_init__()` when the class defines one.  The call goes through
  the instance, so a `__post_init__` replaced on the class after it is
  built is the one that runs.
- `__repr__` is `Name(field=value, ...)` over every field.
- With eq (the default), `__eq__` compares the fields that take part in
  comparisons, as one tuple, for instances of the same class; a frozen class
  hashes that tuple and a mutable one is unhashable.  Without eq, instances
  compare and hash by identity.
- A frozen class raises AttributeError on attribute assignment and deletion.
"""

_MISSING = object()


class _Field:
    __slots__ = ("default", "default_factory", "init", "compare")

    def __init__(self, default=_MISSING, default_factory=_MISSING, init=True, compare=True):
        self.default = default
        self.default_factory = default_factory
        self.init = init
        self.compare = compare


def field(*, default=_MISSING, default_factory=_MISSING, init=True, compare=True):
    """A field with a default factory, or left out of `__init__` (its
    `__post_init__` sets it), or left out of equality and hashing."""
    return _Field(default, default_factory, init, compare)


def record(*, frozen=False, eq=True):
    """Decorate a class with annotated fields as a record; see the module."""

    def build(cls):
        names = tuple(cls.__dict__["__annotations__"])
        init_names, compare_names, defaults = [], [], {}
        for name in names:
            spec = cls.__dict__.get(name, _MISSING)
            if isinstance(spec, _Field):
                if spec.default is _MISSING:
                    delattr(cls, name)
                else:
                    setattr(cls, name, spec.default)
            else:
                spec = _Field(default=spec)
            if spec.init:
                init_names.append(name)
                if spec.default_factory is not _MISSING:
                    defaults[name] = spec.default_factory
                elif spec.default is not _MISSING:
                    defaults[name] = _constant(spec.default)
            if spec.compare:
                compare_names.append(name)
        _set_methods(cls, names, tuple(init_names), defaults, tuple(compare_names), frozen, eq)
        return cls

    return build


def _constant(value):
    return lambda: value


def _set_methods(cls, names, init_names, defaults, compare_names, frozen, eq):
    n = len(init_names)
    post_init = hasattr(cls, "__post_init__")

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != n:
            args = _bind(cls, init_names, defaults, args, kwargs)
        # straight into the instance dict: a frozen __setattr__ would refuse
        self.__dict__.update(zip(init_names, args))
        if post_init:
            self.__post_init__()

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in names)
        return f"{type(self).__qualname__}({fields})"

    methods = {"__init__": __init__, "__repr__": __repr__}
    if eq:

        def key(obj):
            return tuple([getattr(obj, name) for name in compare_names])

        def __eq__(self, other):
            if other.__class__ is self.__class__:
                return key(self) == key(other)
            return NotImplemented

        def __hash__(self):
            return hash(key(self))

        methods["__eq__"] = __eq__
        methods["__hash__"] = __hash__ if frozen else None
    if frozen:

        def __setattr__(self, name, value):
            raise AttributeError(f"cannot assign to field {name!r}")

        def __delattr__(self, name):
            raise AttributeError(f"cannot delete field {name!r}")

        methods["__setattr__"] = __setattr__
        methods["__delattr__"] = __delattr__
    for attr, method in methods.items():
        if method is not None:
            method.__qualname__ = f"{cls.__qualname__}.{attr}"
        setattr(cls, attr, method)


def _bind(cls, names, defaults, args, kwargs) -> list:
    """The field values of a call that is not all fields by position:
    keywords and defaults, with the TypeErrors Python raises for a bad call."""
    where = f"{cls.__qualname__}.__init__()"
    if len(args) > len(names):
        given = len(args) + 1
        raise TypeError(f"{where} takes {len(names) + 1} positional arguments but {given} were given")
    values = dict(zip(names, args))
    for name, value in kwargs.items():
        if name not in names:
            raise TypeError(f"{where} got an unexpected keyword argument {name!r}")
        if name in values:
            raise TypeError(f"{where} got multiple values for argument {name!r}")
        values[name] = value
    missing = [repr(name) for name in names if name not in values and name not in defaults]
    if missing:
        noun = "argument" if len(missing) == 1 else "arguments"
        raise TypeError(f"{where} missing {len(missing)} required positional {noun}: {', '.join(missing)}")
    return [values[name] if name in values else defaults[name]() for name in names]
