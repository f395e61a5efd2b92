"""Independent reference code the benchmark checks `pgwitness` against.

Nothing here imports `pgwitness`.  Games are plain tuples
``(owners, colours, succ)`` over vertices ``0..n-1``; owner 0 is Even.

* `zielonka` -- recursive attractor decomposition, the winner oracle;
* `brute_force_even` -- positional-strategy enumeration for tiny games,
  used to check `zielonka` itself at the start of every run;
* `count_space` -- exact statespace sizes, by the package's closed
  recurrences where they exist and by this module's own count for the
  classic value-capped family;
* `state_key` -- the witness order, for checking antagonistic steps.
"""

from __future__ import annotations

import itertools
import random
from functools import lru_cache

EVEN, ODD = 0, 1


def _attractor(game, alive, target, player):
    owners, _, succ = game
    preds = {v: [] for v in alive}
    for v in alive:
        for w in succ[v]:
            if w in alive:
                preds[w].append(v)
    attr = set(target)
    left = {v: sum(1 for w in succ[v] if w in alive) for v in alive}
    stack = list(attr)
    while stack:
        w = stack.pop()
        for v in preds[w]:
            if v in attr:
                continue
            if owners[v] == player:
                attr.add(v)
                stack.append(v)
            else:
                left[v] -= 1
                if left[v] == 0:
                    attr.add(v)
                    stack.append(v)
    return attr


def zielonka(game) -> frozenset[int]:
    """Even's winning region (the maximum colour seen infinitely often
    decides the play; even maxima are Even's)."""

    def solve(alive: frozenset[int]) -> tuple[frozenset[int], frozenset[int]]:
        if not alive:
            return frozenset(), frozenset()
        colours = game[1]
        top = max(colours[v] for v in alive)
        p = top % 2
        a = _attractor(game, alive, {v for v in alive if colours[v] == top}, p)
        wins = solve(alive - a)
        if not wins[1 - p]:
            return (alive, frozenset()) if p == EVEN else (frozenset(), alive)
        b = _attractor(game, alive, wins[1 - p], 1 - p)
        rest = solve(alive - b)
        out = [None, None]
        out[p] = rest[p]
        out[1 - p] = rest[1 - p] | frozenset(b)
        return out[0], out[1]

    return solve(frozenset(range(len(game[0]))))[0]


def brute_force_even(game) -> frozenset[int]:
    """Even wins ``v`` iff one positional Even strategy beats every
    positional Odd strategy from ``v`` (both players have optimal
    positional strategies)."""
    owners, colours, succ = game
    n = len(owners)
    evens = [v for v in range(n) if owners[v] == EVEN]
    odds = [v for v in range(n) if owners[v] == ODD]
    won: set[int] = set()
    for pick_e in itertools.product(*(succ[v] for v in evens)):
        good = set(range(n))
        for pick_o in itertools.product(*(succ[v] for v in odds)):
            move = dict(zip(evens, pick_e))
            move.update(zip(odds, pick_o))
            for start in list(good):
                seen: dict[int, int] = {}
                v = start
                while v not in seen:
                    seen[v] = len(seen)
                    v = move[v]
                cycle = [w for w, i in seen.items() if i >= seen[v]]
                if max(colours[w] for w in cycle) % 2:
                    good.discard(start)
        won |= good
    return frozenset(won)


def self_check(games: int = 60, seed: int = 7) -> None:
    """Compare `zielonka` with `brute_force_even` on tiny random games."""
    rng = random.Random(seed)
    for _ in range(games):
        n = rng.randint(1, 5)
        game = (
            tuple(rng.randrange(2) for _ in range(n)),
            tuple(rng.randint(0, 5) for _ in range(n)),
            tuple(tuple(rng.sample(range(n), rng.randint(1, min(2, n)))) for _ in range(n)),
        )
        if zielonka(game) != brute_force_even(game):
            raise AssertionError(f"reference zielonka disagrees with brute force on {game}")


# ---------------------------------------------------------------------------
# Statespace sizes
# ---------------------------------------------------------------------------


def count_classic_capped(max_colour: int, e: int, min_colour: int = 1) -> int:
    """Classic value-capped witnesses, counted from their definition.

    ``e.bit_length()`` entries, most significant first, each Blank or a
    colour in ``max(2, min_colour)..top`` (``top`` drops an odd maximum);
    non-blank entries never increase; the last entry is not odd; the
    value -- ``2^position`` for every non-blank entry down to and
    including the first odd one -- is at most ``e``.
    """
    top = max_colour - 1 if max_colour % 2 else max_colour
    alphabet = tuple(range(max(2, min_colour), top + 1))

    @lru_cache(maxsize=None)
    def count(pos: int, bound: int, value: int, blocked: bool) -> int:
        if pos < 0:
            return 1
        total = count(pos - 1, bound, value, blocked)  # Blank here
        for x in alphabet:
            if x > bound or (pos == 0 and x % 2):
                continue
            v = value if blocked else value + (1 << pos)
            if v > e:
                continue
            total += count(pos - 1, x, v, blocked or x % 2 == 1)
        return total

    return count(e.bit_length() - 1, top, 0, False)


def count_space(counting, variant: str, max_colour: int, e: int) -> int:
    """Exact size of a witness statespace with ``min_colour`` 1.

    ``counting`` is the package's counting module, whose recurrences are
    independent of its enumerator.
    """
    if variant == "original-length":
        return counting.count_monotone_seqs(max_colour, e.bit_length())
    if variant == "concise":
        return counting.count_concise_by_value(2 * (max_colour // 2), e)
    return count_classic_capped(max_colour, e)


# ---------------------------------------------------------------------------
# Witness order
# ---------------------------------------------------------------------------


def state_key(state):
    """Blank < odd colours (decreasing) < even colours (increasing),
    compared from the most significant entry; "Won" is above all."""
    if state == "Won":
        return (1,)
    return (0, tuple((0, 0) if x == 0 else (1, -x) if x % 2 else (2, x) for x in state))
