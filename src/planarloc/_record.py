"""Value records: compared, hashed and shown by their fields.

A record class names its fields, in order, in ``_fields``; its own
``__init__`` stores each with ``set_field``, and ``_fields`` doubles as
``__match_args__``.  Equality holds only between records of one
class with equal fields, the repr is ``Name(field=value, ...)``, and a
``FrozenRecord`` is also hashable and refuses assignment and deletion.
An attribute kept in ``__dict__`` but not in ``_fields`` takes no part in
any of these.  The state lives in ``__dict__`` rather than in slots, so
pickle and ``copy`` restore it without calling ``__setattr__``, and a
class may leave a field unset until its first read builds it through a
``lazy_field``.
"""

from __future__ import annotations

# stores one field of a new record past FrozenRecord.__setattr__; unlike a
# write to __dict__, it keeps the instance layout that CPython reads fastest
set_field = object.__setattr__


class Record:
    """A mutable, unhashable record."""

    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls.__match_args__ = cls._fields

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"


class FrozenRecord(Record):
    """A hashable record whose attributes cannot be assigned or deleted."""

    def __hash__(self) -> int:
        return hash(self._values())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class lazy_field:
    """A field that ``build(obj)`` makes on its first read and stores with ``set_field``.

    A non-data descriptor, so a stored value hides it, and the class's
    other fields keep the fast reads that a ``__getattr__`` hook turns off
    and a write through ``__dict__`` slows.
    """

    def __init__(self, build):
        self.build = build

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        value = self.build(obj)
        set_field(obj, self.name, value)
        return value
