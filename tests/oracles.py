"""Independent reference implementations used only by the tests.

Everything in this module is deliberately naive — exhaustive strategy
enumeration, bitmask subset search, filter-the-product enumeration — so
that it shares no algorithmic structure with the package code it checks.
"""

from __future__ import annotations

import itertools
from typing import Sequence

from pgwitness.games import EVEN, ParityGame
from pgwitness.updates import UpdateVariant, capped_update, update_space
from pgwitness.witnesses import (
    BLANK,
    WON,
    Bounds,
    State,
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


def filter_enumerate(bounds: Bounds, variant: StatespaceVariant) -> set[Witness]:
    """Statespace by filtering the full entry-tuple product.

    Way too slow beyond tiny bounds.
    """
    choices = sorted(bounds.statespace_entries(variant)) + [BLANK]
    return {
        tup
        for tup in itertools.product(choices, repeat=bounds.length)
        if is_valid_state(tup, bounds, variant)
    }


def is_valid_state(w: object, bounds: Bounds, variant: StatespaceVariant) -> bool:
    """Structural membership test for the given statespace."""
    if w is WON:
        return False
    if not isinstance(w, tuple) or len(w) != bounds.length:
        return False
    allowed = set(bounds.statespace_entries(variant))
    last = None  # most recent non-blank entry
    for x in w:
        if x == BLANK:
            continue
        if x not in allowed:
            return False
        if last is not None and x > last:
            return False
        last = x
    if variant is StatespaceVariant.ORIGINAL_LENGTH:
        return True
    rightmost = w[-1]
    if rightmost != BLANK and rightmost % 2:
        return False
    if witness_value(w) > bounds.e:
        return False
    if variant is StatespaceVariant.CONCISE:
        odds = [x for x in w if x != BLANK and x % 2]
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


def antagonistic_reference(
    bounds: Bounds, variant: UpdateVariant
) -> dict[int, dict[State, State]]:
    """``reference[d][s]``: the antagonistic update of state ``s`` (WON
    included) by colour ``d``, read off ``suffix_minimum_columns``."""
    states = update_space(bounds, variant) + (WON,)
    return {
        d: {s: states[r] for s, r in zip(states, col)}
        for d, col in suffix_minimum_columns(bounds, variant).items()
    }
