"""The base class of the package's immutable records."""

from operator import attrgetter


class Record:
    """A record's ``__init__`` checks its arguments and sets each field once:
    a slotted record through ``_set``, one that caches a property into its
    ``__dict__``.  ``==``, ``hash`` and ``repr`` read ``_fields``, the fields
    compared, in constructor order."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls):
        # the compared fields as one C-level tuple getter (every record has two or
        # more): a spec is hashed on each cached lookup of its fitted equation
        cls._key = attrgetter(*cls._fields)

    def _set(self, *values):
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key(self) == other._key(other)

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setstate__(self, state):
        # copy and pickle restore the fields, a __dict__ or (None, slots), by setattr
        for name, value in (state[1] if isinstance(state, tuple) else state).items():
            object.__setattr__(self, name, value)
