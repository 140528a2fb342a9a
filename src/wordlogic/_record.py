"""Record classes: `__init__`, `==`, `hash` and `repr` from annotations.

`record` does for wordlogic's value classes what `dataclasses.dataclass` would,
restricted to what they use: `frozen`, field defaults, a `__post_init__`
hook and field tests. It compiles each class's `__init__`, `__eq__` and
`__hash__` in one `exec` and shares one `__repr__` and the frozen
`__setattr__`/`__delattr__` across classes, so importing the package loads
neither `dataclasses` nor `inspect` and pays for no per-class signature.
Equality, hash values and repr text are those `dataclass` gives the same class.
"""


class FrozenInstanceError(AttributeError):
    """Assignment to, or deletion of, an attribute of a frozen record."""


MISSING = object()  # no default given


class Field:
    """One field of a record: its name, its annotation and its default."""

    __slots__ = ("name", "kind", "default")

    def __init__(self, name, kind, default):
        self.name, self.kind, self.default = name, kind, default


def fields(cls):
    """The fields of a record class, in declaration order."""
    return cls.__record_fields__


def is_record(obj) -> bool:
    """Whether obj is a class made by `record`."""
    return isinstance(obj, type) and "__record_fields__" in vars(obj)


def _repr(self):
    cls = type(self)
    shown = ", ".join(f"{f.name}={getattr(self, f.name)!r}"
                      for f in cls.__record_fields__)
    return f"{cls.__qualname__}({shown})"


def _frozen_setattr(self, name, value):
    raise FrozenInstanceError(f"cannot assign to field {name!r}")


def _frozen_delattr(self, name):
    raise FrozenInstanceError(f"cannot delete field {name!r}")


def record(cls=None, /, *, frozen=False, checks=None, scope=None):
    """Class decorator: `@record` or `@record(frozen=True)`. `__init__`
    runs checks[annotation], a test of the value `{0}`, on each field and
    calls `refuse(self, name, value, annotation)` when one fails; scope
    holds `refuse` and the names the tests read."""
    if cls is None:
        return lambda c: record(c, frozen=frozen, checks=checks, scope=scope)
    kinds = vars(cls).get("__annotations__", {})
    specs = tuple(Field(name, kind, vars(cls).get(name, MISSING))
                  for name, kind in kinds.items())
    scope = dict(scope or {}, _setattr=object.__setattr__)  # generated globals
    params, body, defaults = [], [], []
    for f in specs:
        name = f.name
        if f.default is not MISSING:
            defaults.append(f.default)
        elif defaults:
            raise TypeError(f"non-default field {name!r} follows a default")
        params.append(name)
        if checks and f.kind in checks:
            body.append(f"  if not ({checks[f.kind].format(name)}): "
                        f"refuse(self, {name!r}, {name}, {f.kind!r})")
        body.append(f"  _setattr(self, {name!r}, {name})" if frozen
                    else f"  self.{name} = {name}")
    if hasattr(cls, "__post_init__"):
        body.append("  self.__post_init__()")
    compared = "".join(f"self.{f.name}," for f in specs)
    source = "\n".join((
        f"def __init__(self, {', '.join(params)}):",
        *(body or ["  pass"]),
        "def __eq__(self, other):",
        "  if other.__class__ is self.__class__:",
        f"    return ({compared})==({compared.replace('self.', 'other.')})",
        "  return NotImplemented",
        "def __hash__(self):",
        f"  return hash(({compared}))",
    ))
    exec(source, scope)
    scope["__init__"].__defaults__ = tuple(defaults) or None
    cls.__init__ = scope["__init__"]
    cls.__eq__ = scope["__eq__"]
    cls.__hash__ = scope["__hash__"] if frozen else None
    cls.__repr__ = _repr
    if frozen:
        cls.__setattr__ = _frozen_setattr
        cls.__delattr__ = _frozen_delattr
    cls.__record_fields__ = specs
    return cls
