"""Immutable value records without ``dataclasses``.

``Record`` gives the package's value classes (``Bounds``, ``ParityGame``,
``SepAutomaton``, ``WinningSets``) what frozen dataclasses gave them,
without the import cost: ``dataclasses`` loads ``inspect``, ``ast``,
``dis`` and ``tokenize`` and compiles generated methods for every class,
a large share of a cold ``pgwitness solve`` on a small game.
"""

from __future__ import annotations


class Record:
    """Base of an immutable record.

    A subclass's fields are the names it annotates, in order; a class
    attribute of the same name is that field's default.  Calling the
    class binds its arguments to the fields as a function with that
    signature would, then calls ``__post_init__``.  Records of one class
    are equal when their fields are, and hash as the tuple of their
    fields; ``repr`` is ``Name(field=value, ...)``.  Assignment and
    deletion raise AttributeError.  Each instance keeps its fields in its
    ``__dict__``, so ``functools.cached_property``, ``copy`` and
    ``pickle`` work on it as on a plain object.
    """

    _fields: tuple[str, ...]
    _defaults: dict[str, object]

    def __init_subclass__(cls) -> None:
        super().__init_subclass__()
        cls._fields = tuple(cls.__dict__.get("__annotations__", ()))
        cls._defaults = {f: cls.__dict__[f] for f in cls._fields if f in cls.__dict__}

    def __init__(self, *args: object, **kwargs: object) -> None:
        name, fields = type(self).__name__, self._fields
        if len(args) > len(fields):
            raise TypeError(f"{name}() takes {len(fields)} arguments but {len(args)} were given")
        values = {**self._defaults, **dict(zip(fields, args))}
        for field, value in kwargs.items():
            if field not in fields or field in fields[: len(args)]:
                raise TypeError(f"{name}() got an unexpected or repeated argument {field!r}")
            values[field] = value
        missing = [f for f in fields if f not in values]
        if missing:
            raise TypeError(f"{name}() missing arguments: {', '.join(missing)}")
        for f in fields:  # not into __dict__: reading it makes later attribute reads slower
            object.__setattr__(self, f, values[f])
        self.__post_init__()

    def __post_init__(self) -> None:
        """Check the fields; raise ValueError on a bad one."""

    def _values(self) -> tuple:
        return tuple([getattr(self, f) for f in self._fields])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")
