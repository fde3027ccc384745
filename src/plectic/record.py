"""Base of the package's immutable value types."""
from operator import attrgetter


class Record:
    """An immutable value, equal to a value of its own type with equal fields.

    A subclass names its fields in ``__slots__`` and sets them in ``__init__``
    through ``object.__setattr__``; ``_values`` reads their values."""

    __slots__ = ()

    def __init_subclass__(cls):
        cls._values = attrgetter(*cls.__slots__)

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
