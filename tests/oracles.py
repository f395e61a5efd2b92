"""Independent reference implementations used only by the tests.

Everything in this module is deliberately naive — exhaustive strategy
enumeration, bitmask subset search, filter-the-product enumeration — so
that it shares no algorithmic structure with the package code it checks.
"""

from __future__ import annotations

import itertools
from typing import Sequence

from pgwitness.errors import GameParseError
from pgwitness.games import EVEN, ParityGame
from pgwitness.updates import UpdateVariant, capped_update, update_space
from pgwitness.witnesses import (
    BLANK,
    WON,
    Bounds,
    State,
    StatespaceVariant,
    Witness,
    truncate_odd_repeats,
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


def statements_by_characters(text: str) -> list[tuple[int, str]]:
    """The ';'-terminated statements of a PGSolver text, each with the line
    of its first character, found by walking the text one character at a
    time; a ';' inside a quoted vertex name belongs to the name.  Raises
    GameParseError for text after the last statement."""
    statements: list[tuple[int, str]] = []
    buf: list[str] = []
    line = 1
    start_line = 1
    quoted = False
    for ch in text:
        if ch == ";" and not quoted:
            stmt = "".join(buf).strip()
            if stmt:
                statements.append((start_line, stmt))
            buf = []
            start_line = line
        else:
            if ch == '"':
                quoted = not quoted
            elif ch == "\n":
                line += 1
            if not buf and not ch.strip():
                start_line = line
                continue
            buf.append(ch)
    if "".join(buf).strip():
        raise GameParseError("statement not terminated by ';'", start_line)
    return statements


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


def raw_classic_reference(w: Witness, d: int, bounds: Bounds) -> tuple[State, str]:
    """The classic rules, written plainly: ``(new state, rule name)``."""
    L = len(w)
    if d % 2:
        if d == bounds.max_colour:
            return (BLANK,) * L, "reset"
    else:
        # Overflow slot: the rightmost index holding Blank or an odd
        # colour, so only even colours follow it.  With nothing below d
        # before it, the new fragment there absorbs the completed
        # fragments after it; with no slot at all the chain carries out.
        slot = L - 1
        while slot >= 0 and w[slot] != BLANK and w[slot] % 2 == 0:
            slot -= 1
        if slot < 0:
            return WON, "carry-out"
        for x in w[:slot]:
            if x != BLANK and x < d:
                break
        else:
            return w[:slot] + (d,) + (BLANK,) * (L - 1 - slot), "overflow"

    # Local: greatest position holding a colour below d restarts with d
    # (or is cleared entirely at position 0).
    for idx in range(L):
        x = w[idx]
        if x != BLANK and x < d:
            pos = L - 1 - idx
            if pos == 0:
                return w[:idx] + (BLANK,), "local"
            return w[:idx] + (d,) + (BLANK,) * pos, "local"
    # Stale: every entry is Blank or at least d; nothing changes.
    return w, "stale"


def raw_colour_reference(w: Witness, d: int, bounds: Bounds) -> tuple[State, str]:
    """The colour rules, written plainly: ``(new state, rule name)``."""
    L = len(w)
    if d % 2 and d == bounds.max_colour:
        return (BLANK,) * L, "reset"

    if d % 2:
        # Greatest position holding a colour <= d restarts with d; above
        # it every entry is strictly larger (or Blank), so the write never
        # duplicates an odd colour.
        for idx in range(L):
            x = w[idx]
            if x != BLANK and x <= d:
                pos = L - 1 - idx
                if pos == 0:
                    return w[:idx] + (BLANK,), "odd-local"
                return w[:idx] + (d,) + (BLANK,) * pos, "odd-local"
        return w, "odd-stale"

    # Even d.  If an odd colour below d is present, d releases everything
    # that odd colour was blocking: all entries below d at or above the
    # release point merge into d-fragments, and the collected evidence
    # restarts at position 0 with colour d.
    for idx in range(L):
        x = w[idx]
        if x != BLANK and x % 2 and x < d:
            raised = tuple(
                (d if (y != BLANK and y < d) else y) for y in w[: idx + 1]
            )
            return raised + (BLANK,) * (L - idx - 2) + (d,), "even-release"

    # No odd colour below d: the least position holding Blank or an odd
    # colour absorbs the even entries below it into a fragment of colour d;
    # even entries above that are at most d merge into it as well.
    for j in range(L):
        idx = L - 1 - j
        x = w[idx]
        if x == BLANK or x % 2:
            raised = tuple(
                (d if (y != BLANK and y % 2 == 0 and y <= d) else y)
                for y in w[:idx]
            )
            return raised + (d,) + (BLANK,) * j, "even-absorb"
    return WON, "carry-out"


def raw_concise_reference(w: Witness, d: int, bounds: Bounds) -> tuple[State, str]:
    """The concise rules by their definition: the classic rules, then
    every repeated odd colour blanked, whatever colour was read."""
    r, rule = raw_classic_reference(w, d, bounds)
    if r is not WON:
        r = truncate_odd_repeats(r)
    return r, rule


REFERENCE_RULES = {
    UpdateVariant.CLASSIC: raw_classic_reference,
    UpdateVariant.CONCISE: raw_concise_reference,
    UpdateVariant.COLOUR: raw_colour_reference,
}


def raw_update_with_rule(
    w: Witness, d: int, bounds: Bounds, variant: UpdateVariant
) -> tuple[State, str]:
    """Apply one colour to a witness by the reference rules; also name the
    rule that fired.  The colour must lie in the bounds' colour range.
    The result is not value-capped."""
    if not bounds.min_colour <= d <= bounds.max_colour:
        raise ValueError(f"colour {d} outside {bounds.min_colour}..{bounds.max_colour}")
    return REFERENCE_RULES[variant](w, d, bounds)


def raw_update(w: Witness, d: int, bounds: Bounds, variant: UpdateVariant) -> State:
    return raw_update_with_rule(w, d, bounds, variant)[0]


def block_ends_by_neighbours(space: Sequence[Witness]) -> list[int]:
    """``ends[r]``: the rank just past the block of ``space[r]`` (every
    state sharing its entries above its trailing Blanks), found by
    comparing each state with the one before it."""
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
    return ends


def basic_columns(bounds: Bounds, variant: UpdateVariant) -> dict[int, list[int]]:
    """The basic update over statespace ranks, one capped update per state
    and colour.

    ``columns[d][r]`` is the capped update of the state of rank ``r`` by
    colour ``d``, as a rank; rank ``len(space)`` is WON, whose own entry
    ends every column.  An outcome outside the statespace raises KeyError.
    """
    space = update_space(bounds, variant)
    rank: dict[State, int] = {c: i for i, c in enumerate(space)}
    rank[WON] = len(space)
    return {
        d: [rank[capped_update(s, d, bounds, variant)] for s in space] + [len(space)]
        for d in bounds.colours
    }


def suffix_minimum_columns(
    bounds: Bounds, variant: UpdateVariant
) -> dict[int, list[int]]:
    """Antagonistic-update columns over statespace ranks.

    ``columns[d][r]`` is the least of ``basic_columns(bounds,
    variant)[d]`` over every rank at least ``r``.
    """
    return {
        d: list(itertools.accumulate(reversed(col), min))[::-1]
        for d, col in basic_columns(bounds, variant).items()
    }


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


def product_even_region(
    game: ParityGame, bounds: Bounds, variant: UpdateVariant, antagonistic: bool
) -> tuple[frozenset[int], int]:
    """Even's winning set through the explicit safety product, and the
    number of product positions.

    Positions are (vertex, state) pairs reached from every ``(v, blank)``;
    a move along an edge from ``v`` feeds ``v``'s colour to the state,
    through ``capped_update`` or ``antagonistic_reference``, and WON
    positions are not expanded.  The winning positions are then the
    least set containing the WON positions and closed under "Even owns a
    position with a winning successor, or Odd owns one whose successors
    all win", recomputed until nothing changes.
    """
    if antagonistic:
        reference = antagonistic_reference(bounds, variant)
        step = lambda s, d: reference[d][s]  # noqa: E731
    else:
        step = lambda s, d: capped_update(s, d, bounds, variant)  # noqa: E731
    starts = {(v, bounds.blank_witness()) for v in game.vertices()}
    seen = set(starts)
    frontier = list(starts)
    moves: dict[tuple[int, State], set[tuple[int, State]]] = {}
    while frontier:
        reached = []
        for v, s in frontier:
            if s is WON:
                continue
            t = step(s, game.colours[v])
            targets = moves[v, s] = {(w, t) for w in game.succ[v]}
            reached += targets - seen
            seen |= targets
        frontier = reached
    winning = {p for p in seen if p[1] is WON}
    changed = True
    while changed:
        changed = False
        for p, targets in moves.items():
            if p in winning:
                continue
            if targets & winning if game.owners[p[0]] == EVEN else targets <= winning:
                winning.add(p)
                changed = True
    return frozenset(v for v, _ in starts & winning), len(seen)
