"""Update rules: how a witness state changes when a colour is read.

Three rule sets share the same interface.  CLASSIC operates on
value-capped classic witnesses (positions hold chain fragments of exactly
``2^i`` even positions).  CONCISE applies the classic rules and then
blanks repeated odd colours, operating on the concise statespace.  COLOUR
operates on the concise statespace directly with rules that merge all
fragments of the colours an even colour dominates.

Each rule set has a *basic* form (``raw_update`` / ``capped_update``,
deterministic) and an *antagonistic* form (the least possible outcome,
in the witness order, over every state at least as good as the current
one).  The antagonistic form is monotone in its state argument, which the
basic form is not; monotonicity is what value iteration needs.
"""

from __future__ import annotations

import enum
from functools import lru_cache

from .witnesses import (
    BLANK,
    WON,
    Bounds,
    State,
    StatespaceVariant,
    Witness,
    _statespace,
    entry_key,
    state_key,
    statespace_size,
    witness_value,
    truncate_odd_repeats,
)


class UpdateVariant(enum.Enum):
    CLASSIC = "classic"
    CONCISE = "concise"
    COLOUR = "colour"


def space_variant_for(variant: UpdateVariant) -> StatespaceVariant:
    """The statespace each rule set operates on."""
    if variant is UpdateVariant.CLASSIC:
        return StatespaceVariant.CLASSIC_VALUE_CAPPED
    return StatespaceVariant.CONCISE


def _check_colour(d: int, bounds: Bounds) -> None:
    if not bounds.min_colour <= d <= bounds.max_colour:
        raise ValueError(
            f"colour {d} outside {bounds.min_colour}..{bounds.max_colour}"
        )


# The rules below scan by index and test an entry for Blank by its truth
# value: BLANK is 0, so an entry is false exactly when it is Blank.  A
# rule that changes nothing returns its input tuple itself.


def _raw_classic(w: Witness, d: int, bounds: Bounds) -> tuple[State, str]:
    L = len(w)
    if d & 1:
        if d == bounds.max_colour:
            return (BLANK,) * L, "reset"
        stop = L
    else:
        # Overflow slot: the rightmost index holding Blank or an odd
        # colour, so only even colours follow it.  With nothing below d
        # before it, the new fragment there absorbs the completed
        # fragments after it; with no slot at all the chain carries out.
        slot = L - 1
        while slot >= 0:
            x = w[slot]
            if not x or x & 1:
                break
            slot -= 1
        else:
            return WON, "carry-out"
        stop = slot

    # Local: greatest position holding a colour below d restarts with d
    # (or is cleared entirely at position 0).  For even d the scan stops
    # at the slot: with no such colour before it, d overflows there.
    for idx in range(stop):
        x = w[idx]
        if x and x < d:
            pos = L - 1 - idx
            if pos == 0:
                return w[:idx] + (BLANK,), "local"
            return w[:idx] + (d,) + (BLANK,) * pos, "local"
    if d & 1:
        # Stale: every entry is Blank or at least d; nothing changes.
        return w, "stale"
    return w[:slot] + (d,) + (BLANK,) * (L - 1 - slot), "overflow"


def _raw_colour(w: Witness, d: int, bounds: Bounds) -> tuple[State, str]:
    L = len(w)
    if d & 1:
        if d == bounds.max_colour:
            return (BLANK,) * L, "reset"
        # Greatest position holding a colour <= d restarts with d; above
        # it every entry is strictly larger (or Blank), so the write never
        # duplicates an odd colour.
        for idx in range(L):
            x = w[idx]
            if x and x <= d:
                pos = L - 1 - idx
                if pos == 0:
                    return w[:idx] + (BLANK,), "odd-local"
                return w[:idx] + (d,) + (BLANK,) * pos, "odd-local"
        return w, "odd-stale"

    # Even d.  If an odd colour below d is present, d releases everything
    # that odd colour was blocking: all entries below d at or above the
    # release point merge into d-fragments, and the collected evidence
    # restarts at position 0 with colour d.  (Blank is even, so ``x & 1``
    # skips it.)
    for idx in range(L):
        x = w[idx]
        if x & 1 and x < d:
            raised = tuple([d if y and y < d else y for y in w[: idx + 1]])
            return raised + (BLANK,) * (L - idx - 2) + (d,), "even-release"

    # No odd colour below d: the least position holding Blank or an odd
    # colour absorbs the even entries below it into a fragment of colour d;
    # even entries above that are at most d merge into it as well.
    idx = L - 1
    while idx >= 0:
        x = w[idx]
        if not x or x & 1:
            raised = tuple([d if y and not y & 1 and y <= d else y for y in w[:idx]])
            return raised + (d,) + (BLANK,) * (L - 1 - idx), "even-absorb"
        idx -= 1
    return WON, "carry-out"


def _raw_concise(w: Witness, d: int, bounds: Bounds) -> tuple[State, str]:
    # A concise input repeats no odd colour, and the classic rules write
    # at most one entry, d itself: only an odd d written next to its own
    # earlier occurrence leaves a repeat to blank.
    r, rule = _raw_classic(w, d, bounds)
    if d & 1 and r.count(d) > 1:
        r = truncate_odd_repeats(r)
    return r, rule


def _raw_rules(variant: UpdateVariant):
    """The raw rule set of a variant: (witness, colour, bounds) -> (state, rule)."""
    if variant is UpdateVariant.CLASSIC:
        return _raw_classic
    if variant is UpdateVariant.CONCISE:
        return _raw_concise
    return _raw_colour


def raw_update_with_rule(
    w: Witness, d: int, bounds: Bounds, variant: UpdateVariant
) -> tuple[State, str]:
    """Apply one colour to a witness; also name the rule that fired.

    The input must be a structurally valid state of the rule set's
    statespace; the colour must lie in the bounds' colour range.  The
    result is not value-capped (see ``capped_update``).
    """
    _check_colour(d, bounds)
    return _raw_rules(variant)(w, d, bounds)


def raw_update(w: Witness, d: int, bounds: Bounds, variant: UpdateVariant) -> State:
    return raw_update_with_rule(w, d, bounds, variant)[0]


def capped_update(s: State, d: int, bounds: Bounds, variant: UpdateVariant) -> State:
    """The basic update: raw rules, with values beyond ``e`` collapsing to WON.

    WON is absorbing.
    """
    if s is WON:
        _check_colour(d, bounds)
        return WON
    r = raw_update(s, d, bounds, variant)
    if r is WON:
        return WON
    if witness_value(r) > bounds.e:
        return WON
    return r


# ---------------------------------------------------------------------------
# Antagonistic updates
# ---------------------------------------------------------------------------


def update_space(bounds: Bounds, variant: UpdateVariant) -> tuple[Witness, ...]:
    """The sorted statespace the given rule set runs on (WON excluded)."""
    return _statespace(bounds, space_variant_for(variant))


RankTable = tuple[tuple[Witness, ...], dict[Witness, int], dict[int, list[int]]]

# The per-Bounds caches below keep one Bounds' worth of entries: the
# statespaces the rule sets run on, or the rule sets themselves.
_UPDATE_SPACES = frozenset(space_variant_for(v) for v in UpdateVariant)


@lru_cache(maxsize=len(_UPDATE_SPACES))
def _ranked_space(
    bounds: Bounds, variant: StatespaceVariant
) -> tuple[tuple[Witness, ...], dict[Witness, int], list[int]]:
    """The sorted statespace, its inverse ``rank[space[r]] == r``, and the
    block ends.  One entry per statespace: concise and colour rules share
    theirs.

    ``ends[r]`` is the rank just past the block of the state of rank
    ``r``.  The block of a state is every state that shares its entries
    above its trailing Blanks.  Blank is the least entry, so a state is
    the first of its block, and a block is a rank interval.  Blocks nest:
    the states strictly inside a block split into the blocks of ``r + 1``,
    ``ends[r + 1]``, and so on.
    """
    space = _statespace(bounds, variant)
    ends = [len(space)] * len(space)
    open_blocks: list[tuple[int, int]] = []  # (rank, entries above its trailing Blanks)
    prev: Witness = ()
    for r, w in enumerate(space):
        # The first index where w leaves the previous state: every open
        # block fixing more entries than that ends here.
        common = 0
        for x, y in zip(prev, w):
            if x != y:
                break
            common += 1
        while open_blocks and open_blocks[-1][1] > common:
            ends[open_blocks.pop()[0]] = r
        fixed = len(w)
        while fixed and w[fixed - 1] == BLANK:
            fixed -= 1
        open_blocks.append((r, fixed))
        prev = w
    return space, {c: i for i, c in enumerate(space)}, ends


@lru_cache(maxsize=1)
def _column_store(bounds: Bounds) -> dict[tuple[UpdateVariant, int], list[int]]:
    """The antagonistic columns built for ``bounds``, keyed by (rule set,
    colour); kept for the last Bounds only."""
    return {}


def _column(bounds: Bounds, variant: UpdateVariant, d: int) -> list[int]:
    """The antagonistic column of colour ``d`` under ``variant``'s rules,
    built on first use (see ``_antagonistic_table``)."""
    store = _column_store(bounds)
    col = store.get((variant, d))
    if col is not None:
        return col
    space, rank, ends = _ranked_space(bounds, space_variant_for(variant))
    won = len(space)
    rule = _raw_rules(variant)
    col = [won] * (won + 1)
    # The blocks still to fill, as (first state, the entry of the first
    # state of the block around it, or -1 for the whole space).  Sub-blocks
    # are pushed left to right, so a block is popped only after everything
    # to its right is filled, and ``col[end]`` is final when it is read.
    todo = [(0, -1)]
    while todo:
        r, floor = todo.pop()
        end = ends[r]
        right = col[end]
        if floor == right:
            out = right
        else:
            # A stale rule returns its input itself, which is of rank r.
            w = space[r]
            s = rule(w, d, bounds)[0]
            out = r if s is w else rank.get(s, won)
        if out >= right:
            col[r:end] = [right] * (end - r)
            continue
        col[r] = out
        c = r + 1
        while c < end:
            todo.append((c, out))
            c = ends[c]
    store[variant, d] = col
    return col


@lru_cache(maxsize=len(UpdateVariant))
def _antagonistic_table(bounds: Bounds, variant: UpdateVariant) -> RankTable:
    """The antagonistic update over statespace ranks, as ``(space, rank,
    columns)``.

    ``space`` is the sorted statespace and ``rank`` its inverse; rank
    ``len(space)`` stands for WON, so the witness order is integer order.
    ``columns[d][r]`` is the least capped-update outcome, as a rank, over
    every state of rank at least ``r``.  That is the antagonistic update
    of the state of rank ``r`` by colour ``d`` (the order is total, so an
    up-set is a rank suffix).  Every column ends with WON's own entry.

    Columns are filled a block at a time (see ``_ranked_space``).  The
    least outcome over a block is the outcome of its first state, as
    ``antagonistic_update_fast`` shows, so ``col[r] = min(out(r),
    col[end])`` for the block ``r..end-1``; when ``out(r)`` is not below
    ``col[end]`` the whole block holds ``col[end]`` and none of its other
    states is evaluated.  Columns are suffix minima, so non-decreasing:
    a sub-block lies between its parent's entry and ``col`` at its own
    end, and when those two are equal it holds that value throughout,
    with no rule evaluated.  Outcomes are ranked straight from the raw
    rules: one above the budget is not in the value-capped space and
    ranks as WON, as its capped form does.

    Each column is built once per Bounds and rule set (``_column``), and
    the COLOUR table reads the CONCISE column, the same list, for every
    odd colour and for colour 2, because there the two rule sets give
    the same state on every concise state ``w``.  Concise states have
    non-increasing entries, repeat no odd colour, never hold colour 1,
    and hold no odd entry at position 0 (the last index).  For odd ``d``
    (below the greatest colour; both rule sets reset on that one):

    * if ``d`` is at index ``j``, every entry before ``j`` is above
      ``d``, and ``j`` is not position 0, so the colour rules write ``d``
      at ``j`` and give ``w[:j+1] + Blanks``.  Every entry after ``j`` is
      Blank or below ``d``, so the classic rules write ``d`` at the first
      non-Blank after ``j`` (or blank it, at position 0), and truncation
      blanks that repeat of ``d`` again: ``w[:j+1] + Blanks``.  With no
      non-Blank after ``j`` the classic rules leave ``w``, which is that
      state already;
    * otherwise ``d`` is not an entry, so the first entry ``<= d`` is the
      first entry ``< d``: both rule sets write ``d`` there (or blank
      position 0), or both leave ``w``, and nothing is repeated.

    For ``d == 2`` no colour 1 lies below ``d``, so the colour rules
    write 2 at the rightmost index holding Blank or an odd colour, and
    their raise to 2 changes nothing before it.  That index is the
    classic overflow slot, and no entry before it is below 2, so the
    classic overflow writes the same state; with no such index both
    carry out to WON.
    """
    space, rank, _ = _ranked_space(bounds, space_variant_for(variant))
    columns: dict[int, list[int]] = {}
    for d in bounds.colours:
        shared = variant is UpdateVariant.COLOUR and (d % 2 or d == 2)
        columns[d] = _column(bounds, UpdateVariant.CONCISE if shared else variant, d)
    return space, rank, columns


ANTAGONISTIC_TABLE_CAP = 200_000


def space_size(bounds: Bounds, variant: UpdateVariant) -> int:
    """Exact size of the statespace the rule set runs on, without
    enumerating it."""
    return statespace_size(bounds, space_variant_for(variant))


def rank_table(bounds: Bounds, variant: UpdateVariant) -> RankTable | None:
    """The antagonistic table, or None when antagonistic steps must take
    the constructive routine.

    This is the only place the table-or-constructive choice is made
    (solvers ask once per solve, ``antagonistic_update`` once per step),
    from the exact statespace size: nothing is enumerated or built when
    the statespace has more than ``ANTAGONISTIC_TABLE_CAP`` states.
    """
    if space_size(bounds, variant) > ANTAGONISTIC_TABLE_CAP:
        return None
    return _antagonistic_table(bounds, variant)


def antagonistic_update(
    s: State, d: int, bounds: Bounds, variant: UpdateVariant
) -> State:
    """Antagonistic update for production use: a lookup in the table
    ``rank_table`` gives, or the constructive routine when it gives none.
    """
    if s is WON:
        _check_colour(d, bounds)
        return WON
    table = rank_table(bounds, variant)
    if table is None:
        return antagonistic_update_fast(s, d, bounds, variant)
    space, rank, columns = table
    _check_colour(d, bounds)
    r = columns[d][rank[s]]
    return WON if r == len(space) else space[r]


def antagonistic_update_fast(
    s: State, d: int, bounds: Bounds, variant: UpdateVariant
) -> State:
    """Constructive antagonistic update; no statespace enumeration.

    Every state above ``s`` agrees with ``s`` above some position ``t``
    and beats it at ``t``.  For a fixed divergence entry, the least
    capped-update outcome over all ways to fill the positions below ``t``
    is already achieved by leaving them Blank: the rules either ignore the
    low positions (a write forced higher up), return the state unchanged
    (and any filling only increases it), or write ``d`` at position 0
    (and any filling moves the write higher up, increasing the result).
    So the minimum over ``{s} ∪ {agree-above-t, beat-at-t, Blank below}``
    is the full antagonistic update.
    """
    _check_colour(d, bounds)
    if s is WON:
        return WON
    if d % 2 and d == bounds.max_colour:
        return bounds.blank_witness()

    L = bounds.length
    space_variant = space_variant_for(variant)
    alphabet = bounds.statespace_entries(space_variant)
    concise = space_variant is StatespaceVariant.CONCISE

    best: State = capped_update(s, d, bounds, variant)
    best_key = state_key(best)

    for idx in range(L):  # idx 0 = most significant, position L-1-idx
        pos = L - 1 - idx
        head = s[:idx]
        ub = None  # nearest colour above the divergence point
        for y in reversed(head):
            if y != BLANK:
                ub = y
                break
        head_odds = {y for y in head if y != BLANK and y % 2} if concise else None
        base_key = entry_key(s[idx])
        for x in alphabet:
            if entry_key(x) <= base_key:
                continue
            if ub is not None and x > ub:
                continue
            if pos == 0 and x % 2:
                continue
            if concise and x % 2 and head_odds is not None and x in head_odds:
                continue
            c = head + (x,) + (BLANK,) * pos
            if witness_value(c) > bounds.e:
                continue
            r = capped_update(c, d, bounds, variant)
            rk = state_key(r)
            if rk < best_key:
                best, best_key = r, rk
    return best
