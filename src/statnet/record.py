"""Frozen records: immutable value classes whose fields are their annotations.

A subclass declares its fields as annotated class attributes, in order; a
value given to one is its default.  A record is built positionally or by
keyword, then checked by `__post_init__`, which may normalise a field with
`object.__setattr__`.  It cannot be assigned to afterwards, equals only an
equal record of its own class, hashes by its fields and prints as
``Class(field=value, ...)``.  Unlike `dataclasses`, it generates no code
when a class is defined, so defining one costs almost nothing at import.
"""
from __future__ import annotations

_setattr = object.__setattr__


class Record:
    _fields: tuple[str, ...] = ()
    _defaults: dict[str, object] = {}

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(cls.__dict__.get("__annotations__", ()))
        cls._defaults = {f: cls.__dict__[f] for f in cls._fields
                         if f in cls.__dict__}

    def __init__(self, *args, **kwargs):
        fields = self._fields
        if kwargs or len(args) != len(fields):
            args = self._bind(args, kwargs)
        # Set through object.__setattr__, not into self.__dict__: an instance
        # whose dict was never read keeps CPython's fast attribute loads.
        for field, value in zip(fields, args):
            _setattr(self, field, value)
        self.__post_init__()

    @classmethod
    def _bind(cls, args: tuple, kwargs: dict) -> list:
        """Every field's value from these arguments and the defaults."""
        fields = cls._fields
        rest = fields[len(args):]
        if len(args) > len(fields) or kwargs.keys() - rest:
            extra = [*map(repr, args[len(fields):]), *(kwargs.keys() - rest)]
            raise TypeError(f"{cls.__qualname__}() got unexpected or "
                            f"repeated arguments: {', '.join(sorted(extra))}")
        values = {**cls._defaults, **kwargs}
        try:
            return [*args, *map(values.__getitem__, rest)]
        except KeyError as missing:
            raise TypeError(f"{cls.__qualname__}() missing argument "
                            f"{missing}") from None

    def __post_init__(self):
        pass

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def _values(self) -> tuple:
        return tuple(map(self.__getattribute__, self._fields))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        return f"{self.__class__.__qualname__}(" + ", ".join(
            f"{f}={getattr(self, f)!r}" for f in self._fields) + ")"


def replace(record: Record, **changes) -> Record:
    """A new record of the same class with `changes`, validated again."""
    args = [*map(changes.pop, record._fields, record._values())]
    return record.__class__(*args, **changes)
