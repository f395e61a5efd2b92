"""Witness states: ordering, value, statespaces, and play checkers.

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
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Sequence, Union

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


def witness_cmp(a: State, b: State) -> int:
    """Three-way comparison in the witness order (-1, 0, or 1).

    Witnesses compare lexicographically from the most significant entry
    using the entry order; WON is greater than every witness.  Comparing
    witnesses of different lengths raises ValueError.
    """
    if a is WON or b is WON:
        ka = 1 if a is WON else 0
        kb = 1 if b is WON else 0
        return (ka > kb) - (ka < kb)
    if len(a) != len(b):
        raise ValueError("cannot compare witnesses of different lengths")
    ka2, kb2 = witness_key(a), witness_key(b)
    return (ka2 > kb2) - (ka2 < kb2)


def entry_at(w: Witness, position: int) -> Entry:
    """Entry at ``position`` counting from the right (position 0 = last)."""
    return w[len(w) - 1 - position]


def even_positions(w: Witness) -> frozenset[int]:
    """Positions holding an even colour."""
    L = len(w)
    return frozenset(
        L - 1 - i for i, x in enumerate(w) if x != BLANK and x % 2 == 0
    )


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


def truncate_odd_repeats(s: State) -> State:
    """Blank all but the leftmost occurrence of each odd colour.

    Keeps even entries and blanks unchanged.  The result has the same
    even positions and the same value as the input, and the map is
    idempotent.
    """
    if s is WON:
        return WON
    seen: set[int] = set()
    out = []
    for x in s:
        if x != BLANK and x % 2:
            if x in seen:
                out.append(BLANK)
                continue
            seen.add(x)
        out.append(x)
    return tuple(out)


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
    anything, when the statespace has more than ``cap`` states.
    """
    if cap is not None:
        size = statespace_size(bounds, variant)
        if size > cap:
            raise ResourceCapError(
                f"statespace for {bounds} ({variant.value}) has {size} states, "
                f"above the cap of {cap}"
            )
    return list(_statespace(bounds, variant))


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


# One Bounds' worth: solves read the statespaces of one Bounds at a time,
# and a statespace can run to hundreds of thousands of tuples.
@lru_cache(maxsize=len(StatespaceVariant))
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


# ---------------------------------------------------------------------------
# Semantic checkers: does a play prefix actually contain the chain fragments
# a witness claims?
# ---------------------------------------------------------------------------

DEFAULT_CHECK_CAP = 14


class _ChainIndex:
    """Even-chain reachability inside one play prefix.

    ``max_first[c][q]`` is the largest possible first position of an even
    chain with ``c`` positions ending at ``q`` (or -1 if none): between
    consecutive chain positions no colour may exceed the larger flanking
    colour.  Maximising the first position is sound because whether a
    chain extends from ``j`` to ``q`` only depends on ``j`` and ``q``.
    ``suffix_max[p]`` is the largest colour at positions >= ``p``.
    """

    def __init__(self, colours: Sequence[int]):
        m = len(colours)
        self.colours = list(colours)
        self.m = m
        self.suffix_max = [0] * (m + 1)
        for p in range(m - 1, -1, -1):
            self.suffix_max[p] = max(colours[p], self.suffix_max[p + 1])
        self.max_first: list[list[int]] = [[-1] * m]
        row1 = [q if colours[q] % 2 == 0 else -1 for q in range(m)]
        self.max_first.append(row1)
        for c in range(2, m + 1):
            prev = self.max_first[c - 1]
            row = [-1] * m
            for q in range(m):
                if colours[q] % 2:
                    continue
                between = 0
                bestfirst = -1
                for j in range(q - 1, -1, -1):
                    if (
                        prev[j] > bestfirst
                        and between <= max(colours[j], colours[q])
                    ):
                        bestfirst = prev[j]
                    between = max(between, colours[j])
                row[q] = bestfirst
            self.max_first.append(row)

    def outer_ok(self, q: int, colour: int) -> bool:
        return self.suffix_max[q + 1] <= colour

    def min_end_even(self, colour: int, length: int, min_start: int) -> int | None:
        """Earliest end of an all-even chain of ``length`` positions whose
        final position has exactly ``colour``, starting at or after
        ``min_start``, with nothing larger than ``colour`` after the end."""
        if length < 1 or length > self.m:
            return None
        row = self.max_first[length]
        for q in range(self.m):
            if (
                self.colours[q] == colour
                and row[q] >= min_start
                and self.outer_ok(q, colour)
            ):
                return q
        return None

    def min_end_odd(self, colour: int, evens: int, min_start: int) -> int | None:
        """Earliest end of ``evens`` all-even chain positions followed by a
        final position of exactly ``colour`` (odd), under the same
        domination and ordering rules."""
        if evens == 0:
            for q in range(min_start, self.m):
                if self.colours[q] == colour and self.outer_ok(q, colour):
                    return q
            return None
        if evens > self.m:
            return None
        row = self.max_first[evens]
        for q in range(self.m):
            if self.colours[q] != colour or not self.outer_ok(q, colour):
                continue
            between = 0
            for j in range(q - 1, -1, -1):
                if row[j] >= min_start and between <= max(self.colours[j], colour):
                    return q
                between = max(between, self.colours[j])
        return None


def _check_play(play_colours: Sequence[int], max_len: int) -> _ChainIndex:
    if len(play_colours) > max_len:
        raise ResourceCapError(
            f"play prefix of length {len(play_colours)} exceeds checker cap {max_len}"
        )
    return _ChainIndex(play_colours)


def is_classic_witness(
    w: Witness, play_colours: Sequence[int], *, max_len: int = DEFAULT_CHECK_CAP
) -> bool:
    """Does the play prefix support every claim of a classic witness?

    Position ``i`` holding colour ``g`` claims a fragment in the play: an
    all-even inner-dominated chain of exactly ``2^i`` positions whose final
    colour is ``g`` (for even ``g``), or such a chain followed by one
    position of odd colour ``g`` (for odd ``g``); after the fragment's
    final position no larger colour than ``g`` may occur.  Fragments of
    higher positions must end before fragments of lower positions start,
    and the rightmost entry must be even or Blank.

    The search places fragments greedily from the highest position down,
    always taking the placement with the earliest valid end; this is
    complete because every constraint between fragments is "starts after
    the previous end".
    """
    if w is WON:
        raise ValueError("WON is not a witness")
    if w and w[-1] != BLANK and w[-1] % 2:
        return False
    index = _check_play(play_colours, max_len)
    L = len(w)
    min_start = 0
    for i, x in enumerate(w):
        if x == BLANK:
            continue
        pos = L - 1 - i
        evens = 1 << pos
        if x % 2 == 0:
            q = index.min_end_even(x, evens, min_start)
        else:
            q = index.min_end_odd(x, evens, min_start)
        if q is None:
            return False
        min_start = q + 1
    return True


def is_colour_witness(
    w: Witness, play_colours: Sequence[int], *, max_len: int = DEFAULT_CHECK_CAP
) -> bool:
    """Does the play prefix support every claim of a colour witness?

    Here a present colour ``g`` (possibly at several positions) claims one
    fragment: an all-even inner-dominated chain of ``n_g`` positions ending
    in exactly ``g`` (even ``g``, ``n_g >= 1``), or ``n_g`` such positions
    followed by one final position of odd colour ``g`` (``n_g >= 0``);
    after the fragment's final position no larger colour may appear.
    Fragments are ordered by colour: larger colours end before smaller
    colours start.

    The fragment sizes must cover the positions the witness occupies: for
    every present colour ``g``, summing ``n_j`` over present colours ``j``
    from ``g`` up to (excluding) the next present odd colour above ``g``
    must reach the sum of ``2^p`` over the positions those colours occupy.
    Structurally the entries must be monotone, odd colours must occur at
    most once, and the rightmost entry must be even or Blank.

    Searches over fragment sizes (Pareto-reduced to undominated
    size/earliest-end pairs per colour) with the coverage constraints
    checked as soon as all their colours are placed.
    """
    if w is WON:
        raise ValueError("WON is not a witness")
    L = len(w)
    # Structural part: monotone, odd-once, rightmost even-or-blank.
    last = None
    odds_seen: set[int] = set()
    for x in w:
        if x == BLANK:
            continue
        if last is not None and x > last:
            return False
        last = x
        if x % 2:
            if x in odds_seen:
                return False
            odds_seen.add(x)
    if w and w[-1] != BLANK and w[-1] % 2:
        return False

    positions: dict[int, list[int]] = {}
    for i, x in enumerate(w):
        if x != BLANK:
            positions.setdefault(x, []).append(L - 1 - i)
    if not positions:
        return True
    index = _check_play(play_colours, max_len)
    colours_desc = sorted(positions, reverse=True)

    # Coverage constraints, one per present colour g: summing sizes over
    # present colours in [g, next present odd above g) must reach the sum
    # of 2^p over their positions.
    constraints: dict[int, tuple[tuple[int, ...], int]] = {}
    for g in colours_desc:
        next_odd = None
        for j in colours_desc:
            if j > g and j % 2:
                next_odd = j if next_odd is None else min(next_odd, j)
        group = tuple(
            j for j in colours_desc if g <= j and (next_odd is None or j < next_odd)
        )
        budget = sum(1 << p for j in group for p in positions[j])
        constraints[g] = (group, budget)

    m = index.m

    def placements(colour: int, min_start: int) -> list[tuple[int, int]]:
        lo = 0 if colour % 2 else 1
        pairs = []
        for size in range(lo, m + 1):
            if colour % 2:
                q = index.min_end_odd(colour, size, min_start)
            else:
                q = index.min_end_even(colour, size, min_start)
            if q is not None:
                pairs.append((size, q))
        # Pareto: drop (size, q) if another pair has size' >= size, q' <= q.
        pairs.sort(key=lambda p: (-p[0], p[1]))
        pareto: list[tuple[int, int]] = []
        best_q = m + 1
        for size, q in pairs:
            if q < best_q:
                pareto.append((size, q))
                best_q = q
        return pareto

    chosen: dict[int, int] = {}

    def search(t: int, min_start: int) -> bool:
        if t == len(colours_desc):
            return True
        g = colours_desc[t]
        group, budget = constraints[g]
        for size, q in placements(g, min_start):
            chosen[g] = size
            if sum(chosen[j] for j in group) >= budget and search(t + 1, q + 1):
                return True
        chosen.pop(g, None)
        return False

    return search(0, 0)
