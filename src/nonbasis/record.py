"""Record, the base of the package's value types.

A subclass names its fields in _fields, in constructor order, and lists
them in __slots__ unless it keeps a __dict__.  Records of one class with
equal fields are equal and hash alike; a record prints as Name(field=...).
"""

from operator import attrgetter


class Record:
    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls):
        # one C getter per class; a record without fields compares by class
        cls._key = attrgetter(*cls._fields or ("__class__",))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key(self) == self._key(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"
