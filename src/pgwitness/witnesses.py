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
from collections.abc import Callable
from functools import wraps

from .counting import count_classic_by_value, count_concise_by_value, count_monotone_seqs
from .errors import ResourceCapError
from .records import Record

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
State = Witness | _WonType


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

    # Members are singletons and key the per-Bounds caches: hash them by
    # identity, in C, not by name through the Python-level Enum.__hash__.
    __hash__ = object.__hash__


class Bounds(Record):
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
) -> tuple[Witness, ...]:
    """All structurally valid witnesses, sorted ascending in witness order.

    WON is not included.  The tuple is the cached one (see
    ``last_bounds_cache``), so calls with the same Bounds return the same
    object.  Raises ResourceCapError, before enumerating anything, when
    the statespace has more than ``cap`` states, and ValueError when
    ``cap`` is negative.
    """
    capped_statespace_size(bounds, variant, cap)
    return _statespace(bounds, variant)


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


CacheInfo = namedtuple("CacheInfo", "misses currsize")
# The Bounds whose entries the per-Bounds caches hold, and those caches.
_cached_bounds: Bounds | None = None
_caches: list[dict] = []


def last_bounds_cache(fn: Callable) -> Callable:
    """Cache ``fn(bounds, *args)`` for the last Bounds that any cache made
    here saw: solves read one Bounds at a time, and statespaces run to
    hundreds of thousands of tuples.  Another Bounds empties every cache
    first; an equal one keeps them and becomes the Bounds held, so that
    later calls with it compare by identity alone.  ``cache_clear()``
    empties this one; misses never go down."""
    cache: dict = {}
    _caches.append(cache)
    misses = 0

    @wraps(fn)
    def cached(bounds, *args):
        global _cached_bounds
        nonlocal misses
        if bounds is not _cached_bounds:
            if bounds != _cached_bounds:
                for c in _caches:
                    c.clear()
            _cached_bounds = bounds
        try:
            return cache[args]
        except KeyError:
            misses += 1
            cache[args] = value = fn(bounds, *args)
            return value

    cached.cache_info = lambda: CacheInfo(misses, len(cache))
    cached.cache_clear = cache.clear
    return cached


# The rules a statespace is built by, written once for the three walks
# over it (``_statespace``, ``_block_tree`` and ``_offers``): ``(top,
# order, m, spans, weights, e)``.  Entries are chosen most significant
# position first, each at most the last non-Blank entry chosen
# (``last``, ``top`` before any, the greatest colour made odd, so that
# every entry fits).  Blank fits anywhere.  ``order`` is the space's
# non-Blank entries in the entry order, its ``m`` odd ones first, and
# the entries allowed after ``last`` are one run of it: with ``at, lo,
# lo0, hi = spans[last]``, the odds ``order[lo:m]`` and the evens
# ``order[m:hi]``, and ``order[lo0:hi]`` at position 0; ``at`` is the
# index of ``last`` in ``order`` (-1 for a ``top`` outside it).  The
# concise space repeats no odd entry: entries do not increase, so a
# repeat would be the next non-Blank entry after its first occurrence,
# and the odds after an odd ``last`` there leave it out.  The budget:
# before any odd entry, a non-Blank entry at position ``pos`` >= 1 adds
# ``weights[pos]`` to the value, and none fits there when that takes the
# value past ``e``; position 0 holds a non-Blank entry only after an odd
# entry or while the value is below ``e``.  Value-capped spaces weigh
# ``2^pos`` and hold no odd entry at position 0; the original one weighs
# nothing.
Rules = tuple[int, tuple[int, ...], int, dict, tuple[int, ...], int]


@last_bounds_cache
def _rules(bounds: Bounds, variant: StatespaceVariant) -> Rules:
    order = tuple(sorted(bounds.statespace_entries(variant), key=entry_key))
    capped = variant is not StatespaceVariant.ORIGINAL_LENGTH
    concise = variant is StatespaceVariant.CONCISE
    top = bounds.max_colour | 1
    m = sum(x & 1 for x in order)
    rank = {x: at for at, x in enumerate(order)}
    # From the greatest ``last`` down, the odds allowed lose their head
    # and the evens their tail.
    spans = {}
    lo, hi = 0, len(order)
    for last in sorted({top, *order}, reverse=True):
        while lo < m and (order[lo] > last or concise and order[lo] == last):
            lo += 1
        while hi > m and order[hi - 1] > last:
            hi -= 1
        spans[last] = (rank.get(last, -1), lo, m if capped else lo, hi)
    weights = tuple((1 << pos) * capped for pos in range(bounds.length))
    return top, order, m, spans, weights, bounds.e


def _offers(s: Witness, bounds: Bounds, variant: StatespaceVariant) -> tuple | None:
    """The walk of ``_statespace`` down the one tuple ``s`` (see
    ``_rules``), with nothing enumerated.  None unless ``s`` is a state
    of the statespace ``variant``; else ``(order, cuts)``, where
    ``order[lo:hi]`` for ``(lo, hi) = cuts[i]`` are the entries allowed
    at index ``i`` after ``s[:i]`` that come after ``s[i]``, in the entry
    order.  The states ``s[:i] + (x,) + Blanks`` for those entries are
    the first states of the blocks after ``s`` (see ``_block_tree``),
    from the last index up in rank order."""
    top, order, _, spans, weights, e = _rules(bounds, variant)
    if len(s) != len(weights):
        return None
    final = len(weights) - 1
    span, value, odd = spans[top], 0, 0
    cuts = []
    for i, x in enumerate(s):
        _, lo, lo0, hi = span
        if i == final:
            lo = lo0
        weight = weights[final - i]
        if not (odd or value + weight <= e):
            hi = lo  # past the budget Blank alone fits
        if x != BLANK:
            span = spans.get(x)
            if span is None or not lo <= span[0] < hi:
                return None  # an entry not allowed where it stands
            lo = span[0] + 1
            value += weight
            odd |= x & 1
        cuts.append((lo, hi))
    return order, cuts


@last_bounds_cache
def _statespace(bounds: Bounds, variant: StatespaceVariant) -> tuple[Witness, ...]:
    # Entries are tried in the entry order, most significant position
    # first (see ``_rules``), so states come out already sorted.
    top, order, m, spans, weights, e = _rules(bounds, variant)
    # The last position's choices, as 1-tuples.
    blank = (BLANK,)
    ones = [(x,) for x in order]
    leaves = {last: [blank, *ones[lo0:hi]] for last, (_, _, lo0, hi) in spans.items()}
    blank_leaf = [blank]
    out: list[Witness] = []

    def rec(pos: int, head: Witness, last: int, value: int, seen_odd: bool) -> None:
        # The entry at ``pos`` >= 1: Blank, then each entry up to ``last``.
        # At position 1 a choice's branch is the states of position 0,
        # emitted here with no call.
        h = head + blank
        if pos > 1:
            rec(pos - 1, h, last, value, seen_odd)
        else:
            out.extend([h + t for t in (leaves[last] if seen_odd or value < e else blank_leaf)])
        if not seen_odd:
            value += weights[pos]
            if value > e:
                return  # no non-Blank entry fits at pos
        _, lo, _, hi = spans[last]
        for x in order[lo:m]:
            h = head + (x,)
            if pos > 1:
                rec(pos - 1, h, x, value, True)
            else:
                out.extend([h + t for t in leaves[x]])
        for x in order[m:hi]:
            h = head + (x,)
            if pos > 1:
                rec(pos - 1, h, x, value, seen_odd)
            else:
                out.extend([h + t for t in (leaves[x] if seen_odd or value < e else blank_leaf)])

    if bounds.k:
        rec(bounds.k, (), top, 0, False)
    else:
        out.extend(leaves[top])
    # ``rec`` refers to itself through its closure; unbound, it frees
    # ``out`` now instead of at the next full collection.
    del rec
    # With the list freed first, at most two copies of the state pointers
    # are alive at once.
    states = tuple(out)
    del out
    return states


BlockTree = tuple[int, array, array, array, array, array, list[int]]


@last_bounds_cache
def _block_tree(bounds: Bounds, variant: StatespaceVariant) -> BlockTree:
    """A sorted statespace as int arrays, with no state built, as ``(size,
    ends, least, slot, groups, above, ranks)``: what the antagonistic
    table fill (``updates._antagonistic_table``) reads.

    The *block* of the state of rank ``r`` is every state that shares
    its entries above its trailing Blanks.  Blank is the least entry, so
    a state is the first of its block, and a block is a rank interval,
    ``r .. ends[r] - 1``.  Blocks nest: the states strictly inside a
    block split into the blocks of ``r + 1``, ``ends[r + 1]``, and so on.
    A *head* is a state ``P + (Blank,)``; every other state ends in a
    non-Blank entry and is a block of its own, a *leaf*.

    * ``size``: the number of states, and the rank that stands for WON;
    * ``ends``: the block end of every rank;
    * ``least``: for each head, the least entry of ``P`` (its last
      non-Blank one), or ``max_colour | 1`` when ``P`` is all Blank; 0
      for a leaf;
    * ``slot``: for each head, the *group cell* of ``P``'s overflow slot
      ``j``, the rightmost index of ``P`` holding Blank or an odd entry;
      cell 0 when ``P`` has no slot (0 for a leaf too);
    * ``groups``, ``above``: by cell, one per prefix ``P[:j]`` (the heads
      whose slot follows the same prefix share it), the rank of
      ``P[:j] + (2,) + Blanks``, or ``size`` when that state is not in
      the space; and the least entry of ``P[:j]`` (``max_colour | 1``
      when it is all Blank).  Cell 0 has ``size`` and ``max_colour | 1``;
    * ``ranks``: ``list(range(size + 1))``, whose int objects every
      column stores, so that columns hold none of their own.

    ``ends`` to ``above`` are arrays of C ints, four bytes an entry.
    """
    # The walk of ``_statespace`` (see ``_rules``), counting states
    # instead of building them: ``n`` is the rank of the next state.
    # Choosing a non-Blank entry opens a block, whose first state is that
    # choice followed by Blanks, and the block closes when the choice's
    # branch returns; the all-Blank first state's block is the whole
    # space.  A head's leaves follow it, and at position 1 each choice
    # is one head with its leaves: a record and a count, with no call.
    # The call that chooses the entry at index ``t`` makes the cell of
    # the slots at ``t`` (its Blank and odd choices) and hands it down
    # those branches; even choices hand down the cell they were given.
    top, order, m, spans, weights, e = _rules(bounds, variant)
    size = statespace_size(bounds, variant)
    zeros = bytes(4 * size)
    ends = array("i", range(1, size + 1))
    least = array("i", zeros)
    slot = array("i", zeros)
    groups = array("i", [size])
    above = array("i", [top])
    count = {last: hi - lo0 for last, (_, _, lo0, hi) in spans.items()}
    n = 0

    def rec(pos: int, last: int, value: int, seen_odd: bool, cell: int) -> None:
        nonlocal n
        own = len(groups)
        groups.append(size)
        above.append(last)
        if pos > 1:
            rec(pos - 1, last, value, seen_odd, own)
        else:
            least[n] = last
            slot[n] = own
            n += 1 + (count[last] if seen_odd or value < e else 0)
        if not seen_odd:
            value += weights[pos]
            if value > e:
                return  # no non-Blank entry fits at pos
        _, lo, _, hi = spans[last]
        for x in order[lo:m]:
            start = n
            if pos > 1:
                rec(pos - 1, x, value, True, own)
            else:
                least[n] = x
                slot[n] = own
                n += 1 + count[x]
            ends[start] = n
        if hi > m:
            groups[own] = n
        for x in order[m:hi]:
            start = n
            if pos > 1:
                rec(pos - 1, x, value, seen_odd, cell)
            else:
                least[n] = x
                slot[n] = cell
                n += 1 + (count[x] if seen_odd or value < e else 0)
            ends[start] = n

    if bounds.k:
        rec(bounds.k, top, 0, False, 0)
    else:
        least[0] = top
    del rec  # no reference cycle, as in ``_statespace``
    ends[0] = size
    return size, ends, least, slot, groups, above, list(range(size + 1))
