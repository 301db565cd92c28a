"""The base of the package's small immutable value classes.

A subclass declares its attributes in `__slots__` and fills them in its own
`__init__` through `_set` (`object.__setattr__`).  The fields that take part
in equality, hashing and repr are `_fields`, in order: by default all of
`__slots__`, and a class with derived or cached slots names the compared
ones itself.  Equality, hashing and repr then behave as those of a frozen
dataclass over the same fields: equal when the other object has the same
class and equal field values (`NotImplemented` for another class), the
hash of the tuple of field values (so a one-field class hashes as
`hash((value,))`), the repr `Name(field=value, ...)`, and assignment or
deletion raising AttributeError.  Copying and pickling rebuild an object
through its constructor from those values.  Unlike `dataclass`, no source
is generated and compiled per class, so defining one costs no more than an
ordinary class, and importing the package loads neither `dataclasses`
nor `inspect`.
"""

from __future__ import annotations

from operator import attrgetter

_set = object.__setattr__  # how a value class fills its slots


class Frozen:
    __slots__ = ()
    _fields = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        if "_fields" not in cls.__dict__:
            cls._fields = tuple(cls.__slots__)
        # _get(obj): the field values, the bare value when there is one field
        cls._get = staticmethod(attrgetter(*cls._fields))
        cls._one = len(cls._fields) == 1

    def _values(self):
        """The tuple of the field values."""
        value = self._get(self)
        return (value,) if self._one else value

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._get(self) == other._get(other)
        return NotImplemented

    def __hash__(self):
        value = self._get(self)
        return hash((value,) if self._one else value)

    def __repr__(self):
        fields = ", ".join(f"{f}={v!r}" for f, v in zip(self._fields, self._values()))
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):  # copy and pickle rebuild through the constructor
        return self.__class__, self._values()
