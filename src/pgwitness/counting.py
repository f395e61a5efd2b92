"""Exact statespace sizes: recurrences, closed forms, comparison tables.

All functions count witness-shaped tuples over a colour range
``1..c`` (``c`` as given), excluding the WON state.  ``count_*``
functions implement recurrences; ``total_*`` functions implement
independent closed forms that equal the matching recurrence plus one
(the closed forms count one extra designated state).  The structural
families counted here line up with the enumerations in
``witnesses.enumerate_statespace``; the test suite checks both
directions.

Conventions: ``l`` is a tuple length, ``v`` a value budget, ``ec`` an
even colour count argument (the number of colours is even).  Arguments
are validated, results are exact integers.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb


def _check(cond: bool, msg: str) -> None:
    if not cond:
        raise ValueError(msg)


# ---------------------------------------------------------------------------
# Monotone sequences over all colours (length-bounded only)
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def count_monotone_seqs(c: int, l: int) -> int:
    """Length-``l`` tuples over colours ``1..c`` plus Blank, where the
    non-blank entries never increase from most to least significant."""
    _check(c >= 1 and l >= 1, "need c >= 1 and l >= 1")
    if l == 1:
        return c + 1
    return count_monotone_seqs(c, l - 1) + sum(
        count_monotone_seqs(i, l - 1) for i in range(1, c + 1)
    )


def total_monotone_seqs(c: int, l: int) -> int:
    """Closed form: the monotone-sequence count plus one.

    Chooses the number ``i`` of non-blank entries, then a multiset of
    ``i`` colours out of ``c``.
    """
    _check(c >= 1 and l >= 1, "need c >= 1 and l >= 1")
    return 2 + sum(comb(l, i) * comb(i + c - 1, i) for i in range(1, l + 1))


# ---------------------------------------------------------------------------
# Progress measures made of two-symbol words spread over even colours
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def count_bitword_measures(c: int, l: int) -> int:
    """States built from two-symbol words attached to the even colours of
    ``1..c``, with total word length at most ``l``."""
    _check(c >= 2 and l >= 0, "need c >= 2 and l >= 0")
    if c % 2:
        return count_bitword_measures(c - 1, l)
    if l == 0:
        return 1
    if c == 2:
        return (1 << (l + 1)) - 1
    if l == 1:
        return c + 1
    return count_bitword_measures(c - 2, l) + 2 * count_bitword_measures(c, l - 1)


def total_bitword_measures(c: int, l: int) -> int:
    """Closed form: the bitword-measure count plus one.

    Chooses the total length ``i``, the number ``j`` of even colours with
    a non-empty word, a composition of ``i`` into ``j`` parts, and the
    ``2^i`` symbol choices.
    """
    _check(c >= 2 and l >= 0, "need c >= 2 and l >= 0")
    half = c // 2
    return 2 + sum(
        (1 << i) * comb(half, j) * comb(i - 1, j - 1)
        for i in range(1, l + 1)
        for j in range(1, min(i, half) + 1)
    )


# ---------------------------------------------------------------------------
# Structural reductions, by length and/or value
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def count_odd_once(ec: int, l: int) -> int:
    """Monotone length-``l`` tuples over ``1..ec`` (``ec`` even) with each
    odd colour used at most once."""
    _check(ec >= 0 and ec % 2 == 0, "need an even colour count >= 0")
    _check(l >= 1, "need l >= 1")
    if l == 1:
        return ec + 1
    return 1 + 2 * sum(count_odd_once(2 * i, l - 1) for i in range(1, ec // 2 + 1))


@lru_cache(maxsize=None)
def count_concise_by_length(ec: int, l: int) -> int:
    """As ``count_odd_once`` with the rightmost entry even-or-blank and
    colour 1 unused; length-bounded only."""
    _check(ec >= 0 and ec % 2 == 0, "need an even colour count >= 0")
    _check(l >= 1, "need l >= 1")
    if ec == 0:
        return 1
    if l == 1:
        return ec // 2 + 1
    return 2 * sum(count_concise_by_length(2 * i, l - 1) for i in range(1, ec // 2 + 1))


@lru_cache(maxsize=None)
def count_concise_by_length_value(ec: int, l: int, v: int) -> int:
    """Concise tuples of length ``l`` with value at most ``v``.

    The value of a tuple doubles the weight per position from right to
    left; an entry at the most significant position of a length-``l``
    tuple weighs ``2^(l-1)``.
    """
    _check(ec >= 0 and ec % 2 == 0, "need an even colour count >= 0")
    _check(l >= 1, "need l >= 1")
    _check(0 <= v < (1 << l), "need 0 <= v < 2^l")
    if v == 0 or ec == 0:
        return 1
    if l == 1:
        return ec // 2 + 1
    half = 1 << (l - 1)
    if v < half:
        return count_concise_by_length_value(ec, l - 1, v)
    return sum(
        count_concise_by_length_value(2 * i, l - 1, v - half)
        for i in range(1, ec // 2 + 1)
    ) + sum(
        count_concise_by_length_value(2 * i, l - 1, half - 1)
        for i in range(1, ec // 2 + 1)
    )


@lru_cache(maxsize=None)
def count_concise_by_value(ec: int, v: int) -> int:
    """Concise tuples with value at most ``v`` (length implied by ``v``:
    the tuple has ``floor(log2 v) + 1`` entries for ``v >= 1``)."""
    _check(ec >= 0 and ec % 2 == 0, "need an even colour count >= 0")
    _check(v >= 0, "need v >= 0")
    if v == 0 or ec == 0:
        return 1
    if v == 1:
        return ec // 2 + 1
    top = 1 << (v.bit_length() - 1)
    return sum(
        count_concise_by_value(2 * i, v - top) for i in range(1, ec // 2 + 1)
    ) + sum(
        count_concise_by_value(2 * i, top - 1) for i in range(1, ec // 2 + 1)
    )


@lru_cache(maxsize=None)
def _count_classic_tail(c: int, l: int) -> int:
    """Monotone length-``l`` tuples over ``2..c`` plus Blank whose
    rightmost entry is even-or-blank; no value cap (the positions below
    an odd entry carry no value)."""
    if l == 0:
        return 1
    return _count_classic_tail(c, l - 1) + sum(
        _count_classic_tail(x, l - 1) for x in range(2, c + 1) if l > 1 or x % 2 == 0
    )


@lru_cache(maxsize=None)
def _count_classic(c: int, l: int, v: int) -> int:
    """``count_classic_by_value`` on ``l`` positions with colours up to
    ``c``, before any odd entry."""
    if l == 0:
        return 1
    weight = 1 << (l - 1)
    # Blank at the top position.  The other l - 1 positions weigh at most
    # weight - 1, so a larger budget is clamped to that and the cache
    # keeps O(l) budgets per colour instead of up to 2^l.
    total = _count_classic(c, l - 1, min(v, weight - 1))
    if weight <= v:
        for x in range(2, c + 1):
            if x % 2 == 0:
                total += _count_classic(x, l - 1, v - weight)
            elif l > 1:
                total += _count_classic_tail(x, l - 1)
    return total


def count_classic_by_value(ec: int, v: int) -> int:
    """Classic value-capped tuples with value at most ``v``: monotone over
    ``2..ec``, odd colours may repeat, the rightmost entry even-or-blank.

    The tuple has ``floor(log2 v) + 1`` entries.  Its value sums
    ``2^position`` over the entries down to and including the most
    significant odd one; the entries below that odd one weigh nothing.
    """
    _check(ec >= 0 and ec % 2 == 0, "need an even colour count >= 0")
    _check(v >= 0, "need v >= 0")
    return _count_classic(ec, v.bit_length(), v)


@lru_cache(maxsize=None)
def count_evenweight_by_length_value(c: int, l: int, v: int) -> int:
    """Value-capped tuples where only even entries weigh (``2^position``
    each), odd colours may repeat, colour 1 is unused and the rightmost
    entry is even-or-blank; the leading colour bound ``c`` may be odd."""
    _check(c >= 2, "need c >= 2")
    _check(l >= 1, "need l >= 1")
    _check(0 <= v < (1 << l), "need 0 <= v < 2^l")
    if l == 1:
        return 1 if v == 0 else c // 2 + 1
    half = 1 << (l - 1)
    odd_tops = range(2, (c + 1) // 2 + 1)  # odd colours 3, 5, ..., <= c
    if v < half:
        return count_evenweight_by_length_value(c, l - 1, v) + sum(
            count_evenweight_by_length_value(2 * i - 1, l - 1, v) for i in odd_tops
        )
    return (
        count_evenweight_by_length_value(c, l - 1, half - 1)
        + sum(
            count_evenweight_by_length_value(2 * i, l - 1, v - half)
            for i in range(1, c // 2 + 1)
        )
        + sum(
            count_evenweight_by_length_value(2 * i - 1, l - 1, half - 1)
            for i in odd_tops
        )
    )


# ---------------------------------------------------------------------------
# Comparison tables
# ---------------------------------------------------------------------------


def statespace_totals(n: int, c: int) -> tuple[int, int, int]:
    """Exact statespace totals (old, bitword, value-capped) for a game
    with ``n`` vertices and colours ``1..c``.

    The chain budget is ``n``, so tuples have ``ceil(log2(n+1))`` entries
    and the value-capped family is counted at budget ``n`` over the even
    colours only (plus the WON state).
    """
    _check(n >= 1 and c >= 2, "need n >= 1 and c >= 2")
    l = n.bit_length()  # ceil(log2(n+1))
    old = total_monotone_seqs(c, l)
    bitword = total_bitword_measures(c, l)
    value_capped = count_concise_by_value(2 * (c // 2), n) + 1
    return old, bitword, value_capped


FIXED_COLOUR_ROWS: tuple[tuple[int, int], ...] = ((8, 8),) + tuple(
    (16 << i, 10) for i in range(12)
)

LINEAR_COLOUR_ROWS: tuple[tuple[int, int], ...] = tuple(
    (n, n // 10) for n in range(260, 501, 20)
)


def table_fixed_colours() -> list[dict]:
    """Statespace sizes for growing games at (nearly) constant colour
    count; scaled column unit: thousands, rounded down."""
    return table_rows(FIXED_COLOUR_ROWS, 10**3)


def table_linear_colours() -> list[dict]:
    """Statespace sizes for games whose colour count grows with the game;
    scaled column unit: millions, rounded down."""
    return table_rows(LINEAR_COLOUR_ROWS, 10**6)


def table_rows(cells: tuple[tuple[int, int], ...], divisor: int) -> list[dict]:
    """One row of exact totals per ``(n, c)`` cell, with the scaled
    columns divided by ``divisor`` and rounded down."""
    rows = []
    for n, c in cells:
        old, jl, new = statespace_totals(n, c)
        rows.append(
            {
                "n": n,
                "c": c,
                "old_exact": old,
                "jl_exact": jl,
                "new_exact": new,
                "old_k": old // divisor,
                "jl_k": jl // divisor,
                "new_k": new // divisor,
                "new_over_jl": f"{new / jl:.4f}",
            }
        )
    return rows
