"""Frozen records: the package's immutable value types.

A `Record` subclass declares its fields as annotated class attributes and
behaves as a frozen dataclass with the same fields would. The dataclasses
module is not used because importing it loads `inspect`, `ast` and `dis`,
and each decorated class compiles six generated methods: together several
milliseconds of every CLI process. A record compiles only its `__init__`.
"""

from operator import attrgetter

def _frozen(self, name, value=None):
    raise AttributeError(f"cannot assign to or delete field {name!r} of a frozen record")


class Record:
    """Base of the frozen value types.

    - Fields are the class's annotated attributes, in order; a class-level
      value is the field's default.
    - Construction takes the fields positionally or by keyword, then calls
      `__post_init__` if the class has one. That method may normalise a
      field with `object.__setattr__`; nothing else can assign or delete
      one (AttributeError).
    - Records are equal when they are of the same class and their fields
      are equal. The hash is the hash of the tuple of fields and the repr
      is `Name(field=value, ...)`, both as for a frozen dataclass.
    - Instances keep a `__dict__`, so `functools.cached_property` works.
    """

    _fields: tuple[str, ...]

    __setattr__ = _frozen
    __delattr__ = _frozen

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        fields = cls._fields = tuple(cls.__dict__.get("__annotations__", ()))
        cls.__init__ = _make_init(cls, fields)
        get = attrgetter(*fields)
        if len(fields) == 1:  # attrgetter of one name returns the bare value
            one = get

            def get(self):
                return (one(self),)

        def __eq__(self, other):
            if other.__class__ is self.__class__:
                return get(self) == get(other)
            return NotImplemented

        def __hash__(self):
            return hash(get(self))

        cls.__eq__, cls.__hash__ = __eq__, __hash__

    def __repr__(self):
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{self.__class__.__qualname__}({fields})"


def _make_init(cls, fields):
    """Compile `__init__(self, <fields>)`, which stores each argument and
    then calls `__post_init__`; one generated function keeps construction
    as fast as a dataclass's."""
    namespace = {"_set": object.__setattr__}
    params = []
    for f in fields:
        if f in cls.__dict__:
            namespace[f"_default_{f}"] = cls.__dict__[f]
            params.append(f"{f}=_default_{f}")
        else:
            params.append(f)
    body = [f"_set(self, {f!r}, {f})" for f in fields]
    if hasattr(cls, "__post_init__"):
        body.append("self.__post_init__()")
    source = f"def __init__(self, {', '.join(params)}):\n    " + "\n    ".join(body)
    exec(source, namespace)
    init = namespace["__init__"]
    init.__qualname__ = f"{cls.__qualname__}.__init__"
    return init
