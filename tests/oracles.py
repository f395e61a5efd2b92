"""Independent reference implementations used only by the tests.

Everything in this module is deliberately naive — exhaustive strategy
enumeration, bitmask subset search, filter-the-product enumeration — so
that it shares no algorithmic structure with the package code it checks.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Sequence

from pgwitness.games import EVEN, ParityGame
from pgwitness.updates import UpdateVariant, capped_update, update_space
from pgwitness.witnesses import (
    BLANK,
    Bounds,
    StatespaceVariant,
    Witness,
    witness_value,
)


def brute_force_even_region(game: ParityGame) -> frozenset[int]:
    """Even's winning set via exhaustive positional-strategy enumeration.

    Both players have optimal positional strategies, so Even wins from v
    iff some positional Even strategy beats every positional Odd strategy
    starting at v.  Only feasible for very small games.
    """
    even_vs = [v for v in game.vertices() if game.owners[v] == EVEN]
    odd_vs = [v for v in game.vertices() if game.owners[v] != EVEN]

    def cycle_winners(choice: dict[int, int]) -> list[bool]:
        result = []
        for start in game.vertices():
            seen: dict[int, int] = {}
            v = start
            while v not in seen:
                seen[v] = len(seen)
                v = choice[v]
            cut = seen[v]
            cycle = [w for w, i in seen.items() if i >= cut]
            result.append(max(game.colours[w] for w in cycle) % 2 == 0)
        return result

    even_strats = [
        dict(zip(even_vs, pick))
        for pick in itertools.product(*(game.succ[v] for v in even_vs))
    ]
    odd_strats = [
        dict(zip(odd_vs, pick))
        for pick in itertools.product(*(game.succ[v] for v in odd_vs))
    ]
    winning: set[int] = set()
    for sigma in even_strats:
        good = set(game.vertices()) - winning
        for tau in odd_strats:
            res = cycle_winners({**sigma, **tau})
            good = {v for v in good if res[v]}
            if not good:
                break
        winning |= good
    return frozenset(winning)


def longest_even_chain_by_subsets(colours: Sequence[int]) -> int:
    """Longest even chain by trying every subset of positions."""
    m = len(colours)
    best = 0
    for mask in range(1, 1 << m):
        positions = [i for i in range(m) if mask >> i & 1]
        if any(colours[i] % 2 for i in positions):
            continue
        ok = True
        for a, b in zip(positions, positions[1:]):
            flank = max(colours[a], colours[b])
            if any(colours[i] > flank for i in range(a + 1, b)):
                ok = False
                break
        if ok:
            best = max(best, len(positions))
    return best


def filter_enumerate(
    bounds: Bounds,
    variant: StatespaceVariant,
    extra_entries: Iterable[int] = (),
) -> set[Witness]:
    """Statespace by filtering the full entry-tuple product.

    ``extra_entries`` widens the alphabet (used to probe that excluded
    colours never matter).  Way too slow beyond tiny bounds.
    """
    alphabet = set(bounds.statespace_entries(variant)) | set(extra_entries)
    choices = sorted(alphabet) + [BLANK]
    out: set[Witness] = set()
    for tup in itertools.product(choices, repeat=bounds.length):
        if _passes(tup, bounds, variant):
            out.add(tup)
    return out


def _passes(tup: Witness, bounds: Bounds, variant: StatespaceVariant) -> bool:
    non_blank = [x for x in tup if x != BLANK]
    if any(b > a for a, b in zip(non_blank, non_blank[1:])):
        return False  # numeric monotonicity, blanks skipped
    if variant is StatespaceVariant.ORIGINAL_LENGTH:
        return True
    if tup[-1] != BLANK and tup[-1] % 2:
        return False
    if witness_value(tup) > bounds.e:
        return False
    if variant is StatespaceVariant.CONCISE:
        odds = [x for x in non_blank if x % 2]
        if len(odds) != len(set(odds)):
            return False
    return True


def suffix_minimum_columns(
    bounds: Bounds, variant: UpdateVariant
) -> dict[int, list[int]]:
    """Antagonistic-update columns over statespace ranks, one capped update
    per state and colour.

    ``columns[d][r]`` is the least capped-update outcome, as a rank, over
    every state of rank at least ``r``; rank ``len(space)`` is WON.
    """
    space = update_space(bounds, variant)
    rank = {c: i for i, c in enumerate(space)}
    won = len(space)
    columns: dict[int, list[int]] = {}
    for d in bounds.colours:
        col = [won] * (won + 1)
        best = won
        for r in range(won - 1, -1, -1):
            out = rank.get(capped_update(space[r], d, bounds, variant), won)
            if out < best:
                best = out
            col[r] = best
        columns[d] = col
    return columns
