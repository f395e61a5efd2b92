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
    attribute of the same name is that field's default, and fields with
    defaults come last.  The subclass gets an ``__init__`` with one
    parameter per field, so Python binds the arguments and
    ``inspect.signature`` shows them; it stores the fields and then
    calls ``__post_init__``.  Records of one class are equal when their
    fields are, and hash as the tuple of their fields; ``repr`` is
    ``Name(field=value, ...)``.  Assignment and deletion raise
    AttributeError.  Each instance keeps its fields in its ``__dict__``,
    so ``functools.cached_property``, ``copy`` and ``pickle`` work on it
    as on a plain object.
    """

    _fields: tuple[str, ...]

    def __init_subclass__(cls) -> None:
        super().__init_subclass__()
        annotations = cls.__dict__.get("__annotations__", {})
        fields = cls._fields = tuple(annotations)
        defaults = tuple(cls.__dict__[f] for f in fields if f in cls.__dict__)
        if any(f not in cls.__dict__ for f in fields[len(fields) - len(defaults) :]):
            raise TypeError(f"{cls.__name__}: fields with defaults must come last")
        params, scope = ", ".join(fields), {"store": Record._store}
        exec(f"def __init__(self, {params}):\n    store(self, {params})", scope)
        init = scope["__init__"]
        init.__defaults__ = defaults
        init.__annotations__ = {**annotations, "return": None}
        init.__qualname__ = f"{cls.__qualname__}.__init__"
        cls.__init__ = init

    def _store(self, *values: object) -> None:
        for f, value in zip(self._fields, values):  # not into __dict__: reading it
            object.__setattr__(self, f, value)  # makes later attribute reads slower
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
