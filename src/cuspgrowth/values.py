"""`Value`, the base of the package's records.

A record lists its fields, in order, as its `__slots__` and sets each
of them once, in its own `__init__`, through `object.__setattr__`.  The
base gives it what a frozen dataclass would: `==` between records of
the same class and `hash` on the tuple of fields, the repr
``QualName(field=value, ...)``, `__match_args__`, copying by calling
the class on the fields again, and an `AttributeError` on assigning or
deleting any attribute.  A ``"__dict__"`` slot is not a field: it holds
the caches of `functools.cached_property`, which `==`, `hash` and repr
do not see.
"""

from operator import attrgetter


class Value:
    __slots__ = ()

    def __init_subclass__(cls) -> None:
        fields = tuple(name for name in cls.__slots__ if name != "__dict__")
        get = attrgetter(*fields)
        cls._fields = cls.__match_args__ = fields
        cls._astuple = staticmethod(get if len(fields) > 1 else lambda obj: (get(obj),))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._astuple(self) == other._astuple(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._astuple(self))

    def __repr__(self) -> str:
        pairs = ", ".join(f"{name}={value!r}"
                          for name, value in zip(self._fields, self._astuple(self)))
        return f"{self.__class__.__qualname__}({pairs})"

    def __reduce__(self):
        return self.__class__, self._astuple(self)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")
