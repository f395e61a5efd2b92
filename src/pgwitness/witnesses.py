"""Witness states: ordering, value and statespaces.

A witness is a fixed-length tuple of entries, written most significant
first.  An entry is either Blank (no information) or a colour.  Witness
states summarise how much evidence for eventually-even behaviour has been
collected along a play prefix; the distinguished top state ``WON`` means
the evidence is conclusive.

Position ``i`` of a witness of length ``k+1`` is the element
``w[k - i]``, so position 0 is the rightmost element.  A position holding
an even colour stands for a fragment of an even chain with ``2^i``
positions (classic reading) or ``l_i`` positions (colour reading); odd
entries record obligations that block the fragments below them.

Entry order (least to greatest): Blank, then odd colours in decreasing
numeric order, then even colours in increasing numeric order.  Witnesses
compare lexicographically from the most significant entry; ``WON`` is
greater than every witness.
"""

from __future__ import annotations

import enum
from array import array
from collections import namedtuple
from dataclasses import dataclass
from functools import wraps
from typing import Callable, Union

from .counting import count_classic_by_value, count_concise_by_value, count_monotone_seqs
from .errors import ResourceCapError

BLANK = 0


class _WonType:
    """Singleton top state; compares greatest in the witness order."""

    _instance: "_WonType | None" = None

    def __new__(cls) -> "_WonType":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "Won"


WON = _WonType()

Entry = int  # BLANK or a colour
Witness = tuple[int, ...]
State = Union[Witness, _WonType]


class StatespaceVariant(enum.Enum):
    """Families of structurally valid witness tuples.

    ORIGINAL_LENGTH: monotone tuples over all colours plus Blank, with no
    further restriction.  CLASSIC_VALUE_CAPPED additionally drops the top
    odd colour and colour 1 from the alphabet, requires the rightmost
    entry to be even or Blank, and caps the witness value at ``e``.
    CONCISE further allows each odd colour at most once.
    """

    ORIGINAL_LENGTH = "original-length"
    CLASSIC_VALUE_CAPPED = "classic-value-capped"
    CONCISE = "concise"


@dataclass(frozen=True)
class Bounds:
    """Parameters a witness statespace is built from.

    ``max_colour`` and ``min_colour`` delimit the consecutive colour range
    (``min_colour`` is 1 or 2); ``e`` >= 1 is the even-chain budget: a play
    exhibiting an even chain longer than ``e`` is accepted.  Witnesses
    have ``k+1`` entries where ``k = floor(log2(e))``.
    """

    max_colour: int
    e: int
    min_colour: int = 1

    def __post_init__(self) -> None:
        if self.min_colour not in (1, 2):
            raise ValueError("min_colour must be 1 or 2")
        if self.max_colour < self.min_colour:
            raise ValueError("max_colour must be >= min_colour")
        if self.e < 1:
            raise ValueError("e must be >= 1")

    @property
    def k(self) -> int:
        return self.e.bit_length() - 1

    @property
    def length(self) -> int:
        return self.k + 1

    @property
    def colours(self) -> tuple[int, ...]:
        return tuple(range(self.min_colour, self.max_colour + 1))

    @property
    def reduced_colours(self) -> tuple[int, ...]:
        """The colour range without its top odd colour (if the top is odd).

        Reading the top odd colour wipes every witness, so witness entries
        never need it.
        """
        top = self.max_colour - 1 if self.max_colour % 2 else self.max_colour
        return tuple(range(self.min_colour, top + 1))

    def statespace_entries(self, variant: StatespaceVariant) -> tuple[int, ...]:
        """Non-blank entries allowed in witnesses of the given variant.

        Value-capped variants also drop colour 1: an entry 1 could only
        sit at a position whose fragment is blocked forever, and updates
        never write one.
        """
        if variant is StatespaceVariant.ORIGINAL_LENGTH:
            return self.colours
        return tuple(c for c in self.reduced_colours if c != 1)

    def blank_witness(self) -> Witness:
        return (BLANK,) * self.length


def entry_key(x: Entry) -> tuple[int, int]:
    """Sort key realising the entry order Blank < odds (decreasing) < evens."""
    if x == BLANK:
        return (0, 0)
    if x % 2:
        return (1, -x)
    return (2, x)


def witness_key(w: Witness) -> tuple[tuple[int, int], ...]:
    return tuple(entry_key(x) for x in w)


def state_key(s: State):
    """Sort key over witnesses and WON jointly; WON is the greatest."""
    if s is WON:
        return (1,)
    return (0, witness_key(s))


def witness_value(w: Witness) -> int:
    """Guaranteed even-chain length encoded by a witness.

    Even entries above the highest odd position contribute ``2^position``
    each; the highest odd position contributes ``2^position`` itself
    (the even fragments inside it are already accounted for); everything
    below the highest odd position is still blocked and contributes
    nothing.  Without odd entries the even positions simply sum up.
    """
    L = len(w)
    total = 0
    for i, x in enumerate(w):
        if x == BLANK:
            continue
        pos = L - 1 - i
        total += 1 << pos
        if x % 2:
            break
    return total


def state_str(s: State) -> str:
    """Render a state: entries comma-separated, Blank as '_', or 'Won'."""
    if s is WON:
        return "Won"
    return ",".join("_" if x == BLANK else str(x) for x in s)


def statespace_size(bounds: Bounds, variant: StatespaceVariant) -> int:
    """Exact number of states in a statespace (WON excluded), without
    enumerating it.  Every size limit on a statespace is decided from this
    count."""
    if variant is StatespaceVariant.ORIGINAL_LENGTH:
        return count_monotone_seqs(bounds.max_colour - bounds.min_colour + 1, bounds.length)
    ec = 2 * (bounds.max_colour // 2)
    if variant is StatespaceVariant.CLASSIC_VALUE_CAPPED:
        return count_classic_by_value(ec, bounds.e)
    return count_concise_by_value(ec, bounds.e)


DEFAULT_SPACE_CAP = 1_000_000


def enumerate_statespace(
    bounds: Bounds,
    variant: StatespaceVariant,
    cap: int | None = DEFAULT_SPACE_CAP,
) -> list[Witness]:
    """All structurally valid witnesses, sorted ascending in witness order.

    WON is not included.  Raises ResourceCapError, before enumerating
    anything, when the statespace has more than ``cap`` states, and
    ValueError when ``cap`` is negative.
    """
    capped_statespace_size(bounds, variant, cap)
    return list(_statespace(bounds, variant))


def capped_statespace_size(bounds: Bounds, variant: StatespaceVariant, cap: int | None) -> int:
    """``statespace_size``, after the cap checks of ``enumerate_statespace``
    (which raises what this raises): nothing is enumerated."""
    size = statespace_size(bounds, variant)
    if cap is not None:
        if cap < 0:
            raise ValueError(f"cap {cap} is below 0")
        if size > cap:
            raise ResourceCapError(
                f"statespace for {bounds} ({variant.value}) has {size} states, "
                f"above the cap of {cap}"
            )
    return size


class Statespace(tuple):
    """A sorted statespace, with the block end of every state.

    ``ends[r]`` is the rank just past the block of the state of rank
    ``r``.  The block of a state is every state that shares its entries
    above its trailing Blanks.  Blank is the least entry, so a state is
    the first of its block, and a block is a rank interval.  Blocks nest:
    the states strictly inside a block split into the blocks of ``r + 1``,
    ``ends[r + 1]``, and so on.  ``ends`` is an array of C ints, four
    bytes a state.
    """

    ends: array


CacheInfo = namedtuple("CacheInfo", "misses currsize")
# The Bounds whose entries the per-Bounds caches hold, and those caches.
_cached_bounds: Bounds | None = None
_caches: list[dict] = []


def last_bounds_cache(fn: Callable) -> Callable:
    """Cache ``fn(bounds, *args)`` for the last Bounds that any cache made
    here saw: solves read one Bounds at a time, and statespaces run to
    hundreds of thousands of tuples.  Another Bounds empties every cache
    first.  ``cache_clear()`` empties this one; misses never go down."""
    cache: dict = {}
    _caches.append(cache)
    misses = 0

    @wraps(fn)
    def cached(bounds, *args):
        global _cached_bounds
        nonlocal misses
        if bounds is not _cached_bounds and bounds != _cached_bounds:
            for c in _caches:
                c.clear()
            _cached_bounds = bounds
        if args not in cache:
            misses += 1
            cache[args] = fn(bounds, *args)
        return cache[args]

    cached.cache_info = lambda: CacheInfo(misses, len(cache))
    cached.cache_clear = cache.clear
    return cached


@last_bounds_cache
def _statespace(bounds: Bounds, variant: StatespaceVariant) -> Statespace:
    # Entries are tried in the entry order, most significant position
    # first, so states come out already sorted.  Choosing a non-Blank
    # entry opens a block, whose first state is that choice followed by
    # Blanks, and the block closes when the choice's branch returns.  A
    # state at which no block opens is its own block, and the all-Blank
    # first state's block is the whole space.
    entries = sorted(bounds.statespace_entries(variant), key=entry_key)
    capped = variant is not StatespaceVariant.ORIGINAL_LENGTH
    concise = variant is StatespaceVariant.CONCISE
    e = bounds.e
    top = bounds.max_colour + 1
    # The non-Blank entries allowed after the entry ``last``, and the
    # last position's choices, as 1-tuples.
    choices = {last: [x for x in entries if x <= last] for last in (top, *entries)}
    leaves = {
        last: [(BLANK,)] + [(x,) for x in xs if not (capped and x & 1)]
        for last, xs in choices.items()
    }
    blank = (BLANK,)
    blank_leaf = [blank]
    out: list[Witness] = []
    ends = array("i", range(1, statespace_size(bounds, variant) + 1))

    def rec(
        pos: int, head: Witness, last: int, value: int, seen_odd: bool, used_odds: frozenset[int]
    ) -> None:
        # The entry at ``pos`` >= 1: Blank, then each entry up to ``last``.
        # At position 1 a choice's branch is the states of position 0,
        # emitted here with no call.  Below the budget (value < e, or an
        # odd entry above) position 0 may hold a non-Blank entry.
        h = head + blank
        if pos > 1:
            rec(pos - 1, h, last, value, seen_odd, used_odds)
        else:
            out.extend([h + t for t in (leaves[last] if seen_odd or value < e else blank_leaf)])
        if capped and not seen_odd:
            value += 1 << pos
            if value > e:
                return  # no non-Blank entry fits at pos
        for x in choices[last]:
            seen, used = seen_odd, used_odds
            if x & 1:
                if concise:
                    if x in used_odds:
                        continue
                    used = used_odds | {x}
                seen = True
            start = len(out)
            h = head + (x,)
            if pos > 1:
                rec(pos - 1, h, x, value, seen, used)
            else:
                out.extend([h + t for t in (leaves[x] if seen or value < e else blank_leaf)])
            ends[start] = len(out)

    if bounds.k:
        rec(bounds.k, (), top, 0, False, frozenset())
    else:
        out.extend(leaves[top])
    # ``rec`` refers to itself through its closure; unbound, it frees
    # ``out`` now instead of at the next full collection.
    del rec
    ends[0] = len(out)
    # ``Statespace(x)`` makes a plain tuple of ``x`` (``x`` itself when it
    # is one) and copies that: with the list freed first, at most two
    # copies of the state pointers are alive at once.
    states = tuple(out)
    del out
    space = Statespace(states)
    space.ends = ends
    return space
