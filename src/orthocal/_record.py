"""Immutable records, in place of ``@dataclass(frozen=True)``.

A subclass declares its fields as annotations, with any defaults as class
attributes, as a dataclass does.  Only its ``__init__`` is generated, which
calls ``__post_init__`` when the class has one; the base supplies the rest:
the dataclass ``repr``, equality and hashing on the field values (identity
for a class declared with ``eq=False``), and assignment or deletion raising
:class:`dataclasses.FrozenInstanceError`.  A frozen dataclass compiles five
or six methods per class at import; a record compiles one.
"""

import operator


class Record:
    """Base of the immutable records; ``_fields`` are the field names in
    declaration order, ``_values(record)`` their values."""

    _fields: tuple = ()

    def __init_subclass__(cls, eq: bool = True) -> None:
        if not eq:
            cls.__eq__, cls.__hash__ = object.__eq__, object.__hash__
        own = tuple(cls.__dict__.get("__annotations__", ()))
        if not own:  # a subclass without fields of its own inherits them all
            return
        cls._fields = names = cls._fields + own
        cls._values = operator.attrgetter(*names)
        # a default is the class attribute of the field's name
        params = ", ".join(f"{n}=cls.{n}" if hasattr(cls, n) else n for n in names)
        values = ", ".join(f"{n!r}: {n}" for n in names)
        post = "; self.__post_init__()" if hasattr(cls, "__post_init__") else ""
        namespace = {"cls": cls, "_set": object.__setattr__}
        exec(f"def __init__(self, {params}): _set(self, '__dict__', {{{values}}}){post}", namespace)
        cls.__init__ = namespace["__init__"]

    def __repr__(self) -> str:
        values = ", ".join(f"{n}={getattr(self, n)!r}" for n in self._fields)
        return f"{type(self).__qualname__}({values})"

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values(self) == other._values(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values(self))

    # dataclasses, and copy with it, is imported only where it raises: a
    # cold process that never assigns to a record does not load it
    def __setattr__(self, name, value):
        from dataclasses import FrozenInstanceError

        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        from dataclasses import FrozenInstanceError

        raise FrozenInstanceError(f"cannot delete field {name!r}")
