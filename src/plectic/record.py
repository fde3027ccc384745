"""Base of the package's immutable value types."""
from operator import attrgetter


class Record:
    """An immutable value, equal to a value of its own type with equal fields.

    A subclass names its fields in ``__slots__``.  ``Record(*values)`` sets
    them in slot order, one value per field; a subclass that checks or
    converts its arguments does so in its own ``__init__`` and then calls
    ``super().__init__`` with the field values.  ``_values`` reads them."""

    __slots__ = ()

    def __init_subclass__(cls):
        cls._values = attrgetter(*cls.__slots__)
        cls._setters = tuple(getattr(cls, name).__set__ for name in cls.__slots__)

    def __init__(self, *values):
        for set_field, value in zip(self._setters, values, strict=True):
            set_field(self, value)

    def __setattr__(self, *a):
        raise AttributeError(f"{type(self).__name__} is immutable")

    __delattr__ = __setattr__

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._values(self) == self._values(other)

    def __hash__(self):
        return hash(self._values(self))

    def __repr__(self):
        fields = ", ".join(f"{n}={getattr(self, n)!r}" for n in self.__slots__)
        return f"{type(self).__name__}({fields})"
