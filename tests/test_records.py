"""The package's four value records behave as the frozen dataclasses they
replaced: construction and its signature, checks, equality, hashing,
``repr``, immutability, copying and pickling."""

from __future__ import annotations

import copy
import inspect
import pickle

import pytest

from pgwitness import (
    Bounds,
    ParityGame,
    SepAutomaton,
    UpdateKind,
    UpdateVariant,
    WinningSets,
)

# (class, field names, how many of them have no default, field values,
# another valid value for each field, repr, the keyword arguments that
# ``__post_init__`` rejects with their messages)
RECORDS = [
    (
        Bounds,
        ("max_colour", "e", "min_colour"),
        2,
        (8, 24, 1),
        (10, 26, 2),
        "Bounds(max_colour=8, e=24, min_colour=1)",
        [
            ({"max_colour": 8, "e": 24, "min_colour": 3}, "min_colour must be 1 or 2"),
            ({"max_colour": 1, "e": 24, "min_colour": 2}, "max_colour must be >= min_colour"),
            ({"max_colour": 8, "e": 0}, "e must be >= 1"),
        ],
    ),
    (
        ParityGame,
        ("owners", "colours", "succ", "ids", "names"),
        3,
        ((0, 1), (1, 2), ((1,), (0,)), None, None),
        ((1, 1), (2, 2), ((0,), (1,)), (5, 7), ("a", None)),
        "ParityGame(owners=(0, 1), colours=(1, 2), succ=((1,), (0,)), ids=None, names=None)",
        [
            ({"owners": (0,), "colours": (1, 2), "succ": ((1,), (0,))}, "equal length"),
            ({"owners": (), "colours": (), "succ": ()}, "at least one vertex"),
            ({"owners": (2,), "colours": (1,), "succ": ((0,),)}, "owner must be 0 or 1"),
            ({"owners": (0,), "colours": (-1,), "succ": ((0,),)}, "colour must be >= 0"),
            ({"owners": (0,), "colours": (1,), "succ": ((),)}, "needs a successor"),
            ({"owners": (0,), "colours": (1,), "succ": ((1,),)}, "successor 1 out of range"),
            ({"owners": (0,), "colours": (1,), "succ": ((0,),), "ids": (1, 2)}, "ids must match"),
            ({"owners": (0,), "colours": (1,), "succ": ((0,),), "names": ()}, "names must match"),
        ],
    ),
    (
        SepAutomaton,
        ("bounds", "variant", "kind"),
        2,
        (Bounds(8, 24), UpdateVariant.CLASSIC, UpdateKind.BASIC),
        (Bounds(8, 25), UpdateVariant.CONCISE, UpdateKind.ANTAGONISTIC),
        "SepAutomaton(bounds=Bounds(max_colour=8, e=24, min_colour=1), "
        "variant=<UpdateVariant.CLASSIC: 'classic'>, kind=<UpdateKind.BASIC: 'basic'>)",
        [],
    ),
    (
        WinningSets,
        ("even", "odd"),
        2,
        (frozenset({0}), frozenset({1})),
        (frozenset({1}), frozenset({0})),
        "WinningSets(even=frozenset({0}), odd=frozenset({1}))",
        [],
    ),
]


@pytest.mark.parametrize(
    "cls, fields, required, values, others, text, rejected",
    RECORDS,
    ids=[r[0].__name__ for r in RECORDS],
)
def test_records_behave_as_frozen_dataclasses(
    cls, fields, required, values, others, text, rejected
):
    assert len(fields) == len(values) == len(others)
    rec = cls(*values)
    keywords = dict(zip(fields, values))

    # Positional, keyword and default construction; fields in order.
    assert rec == cls(**keywords) == cls(*values[:1], **dict(list(keywords.items())[1:]))
    assert tuple(getattr(rec, f) for f in fields) == values
    assert cls(*values[:required]) == rec  # the other values are the defaults
    params = inspect.signature(cls).parameters.values()
    assert [p.name for p in params] == list(fields)
    assert [p.default for p in params] == [inspect.Parameter.empty] * required + list(
        values[required:]
    )
    for bad in (values + values[:1], ()):
        with pytest.raises(TypeError):
            cls(*bad)
    with pytest.raises(TypeError):
        cls(*values, **{fields[0]: values[0]})
    with pytest.raises(TypeError):
        cls(**keywords, extra=1)

    # Equality and hashing on the fields, as the dataclass did.
    same = cls(*copy.deepcopy(values))
    assert same == rec and not same != rec and hash(same) == hash(rec) == hash(values)
    assert rec != values and rec != None  # noqa: E711
    for i, f in enumerate(fields):
        changed = cls(**{**keywords, f: others[i]})
        assert changed != rec and not changed == rec, f
        assert getattr(changed, f) == others[i]

    assert repr(rec) == text

    for f in (*fields, "extra"):
        with pytest.raises(AttributeError):
            setattr(rec, f, values[0])
        with pytest.raises(AttributeError):
            delattr(rec, f)
    assert tuple(getattr(rec, f) for f in fields) == values

    for clone in (copy.copy(rec), copy.deepcopy(rec), pickle.loads(pickle.dumps(rec))):
        assert type(clone) is cls and clone == rec and hash(clone) == hash(rec)

    for kwargs, message in rejected:
        with pytest.raises(ValueError, match=message):
            cls(**kwargs)

    if cls is ParityGame:
        assert "predecessors" not in vars(rec)
        preds = rec.predecessors
        assert preds == ((1,), (0,)) and vars(rec)["predecessors"] is preds
        assert rec.predecessors is preds and rec == same
        assert pickle.loads(pickle.dumps(rec)).predecessors == preds
