"""Immutable value classes without ``dataclasses``.

``dataclasses`` imports ``inspect``, ``ast``, ``dis`` and ``tokenize``
and generates methods per class, a large share of every cold start.  A
subclass of :class:`Value` lists its fields in ``__slots__`` and sets
them in its own ``__init__`` with ``object.__setattr__``.  Equality,
hashing and ``repr`` work on the tuple of the fields in slot order,
exactly as a frozen dataclass's do.
"""

from operator import attrgetter


class Value:
    __slots__ = ()

    def __init_subclass__(cls) -> None:
        super().__init_subclass__()
        cls._fields = staticmethod(attrgetter(*cls.__slots__))  # a tuple: every class has 2+ fields

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._fields(self) == self._fields(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._fields(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of an immutable value")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of an immutable value")

    def __reduce__(self):
        # copy and pickle would restore the slots through __setattr__; rebuild through __init__
        return self.__class__, self._fields(self)
