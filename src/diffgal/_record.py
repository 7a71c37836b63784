"""`Record`: the value semantics of a plain dataclass, without importing
`dataclasses` (and, through it, `inspect`) at start-up."""

from __future__ import annotations


class Record:
    """Equality and a constructor-style repr over the attributes named in
    `_fields`, in that order, as `@dataclass` gives them: instances are equal
    when they are of the same class and their fields are, and they are
    unhashable unless a subclass defines `__hash__`."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()
    __hash__ = None

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __repr__(self) -> str:
        inner = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({inner})"
