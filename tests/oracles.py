"""Independent reference implementations used only by the tests.

The solvers and rules here are deliberately naive — exhaustive strategy
enumeration, bitmask subset search, filter-the-product enumeration — so
that they share no algorithmic structure with the package code they
check.  Beside them live the specification the rules are checked
against: the witness order as a three-way comparison, odd-repeat
truncation, the semantic checkers that decide whether a play prefix
holds the chain fragments a witness claims, random plays with their
longest even chains, and the half-budget counting identity.  Two helpers
read the package's own rank table: ``table_update``, so that checks can
compare it with the references and with the constructive routine, and
``full_scan_lifting``, the lifting loop that re-reads every successor at
every pop, against which the package's justified loop is checked.
"""

from __future__ import annotations

import itertools
import random
from collections import deque
from typing import Callable, Sequence

from pgwitness.counting import _check, count_concise_by_length
from pgwitness.errors import GameParseError, InternalInvariantError, ResourceCapError
from pgwitness.games import EVEN, ParityGame
from pgwitness.updates import UpdateVariant, capped_update, rank_table, space_variant_for
from pgwitness.witnesses import (
    BLANK,
    WON,
    Bounds,
    Entry,
    State,
    StatespaceVariant,
    Witness,
    _statespace,
    witness_key,
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


def table_update(bounds: Bounds, variant: UpdateVariant) -> Callable[[State, int], State]:
    """The antagonistic update as the solvers read it from
    ``updates.rank_table``: ``table_update(bounds, variant)(s, d)`` takes
    ``s`` (WON included) to its rank, reads ``columns[d]`` there and
    returns the state of that rank, or WON.  Ranks are positions in the
    enumerated statespace, which the table itself never builds.  The
    statespace must be within the table cap."""
    won, columns = rank_table(bounds, variant)
    space = update_space(bounds, variant)
    rank = {s: r for r, s in enumerate(space)}

    def update(s: State, d: int) -> State:
        r = columns[d][won if s is WON else rank[s]]
        return WON if r == won else space[r]

    return update


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


def full_scan_lifting(
    game: ParityGame, bounds: Bounds, variant: UpdateVariant, order: str = "fifo"
) -> tuple[list[int], int]:
    """The final lifting measures (statespace ranks) and the number of
    lifts, by a loop that re-reads every successor at every pop.

    Measures start at rank 0.  A pop takes the max (Even) or min (Odd)
    of ``col[mu[w]]`` over the successors ``w``, with ``col`` the rank
    table's column of the vertex's colour, and lifts when that is above
    the measure; a lift queues each predecessor not already queued, in
    predecessor order.  ``order`` is ``"fifo"`` (a queue of every vertex
    in vertex order, the package's order) or ``"lifo"`` (a stack that
    pops vertex 0 first and pushes each newly queued predecessor on top).
    """
    if order not in ("fifo", "lifo"):
        raise ValueError(f"unknown worklist order {order!r}")
    _, columns = rank_table(bounds, variant)
    column = [columns[c] for c in game.colours]
    preds = game.predecessors
    mu = [0] * game.n
    queued = [True] * game.n
    work = deque(game.vertices())
    pop = work.popleft
    if order == "lifo":
        work.reverse()
        pop = work.pop
    lifts = 0
    while work:
        v = pop()
        queued[v] = False
        col = column[v]
        ws = game.succ[v]
        new = col[mu[ws[0]]]
        for w in ws:
            x = col[mu[w]]
            if (x > new) if game.owners[v] == EVEN else (x < new):
                new = x
        if new > mu[v]:
            mu[v] = new
            lifts += 1
            for p in preds[v]:
                if not queued[p]:
                    queued[p] = True
                    work.append(p)
    return mu, lifts


# ---------------------------------------------------------------------------
# The statespace a rule set runs on
# ---------------------------------------------------------------------------

def update_space(bounds: Bounds, variant: UpdateVariant) -> tuple[Witness, ...]:
    """The sorted statespace the given rule set runs on (WON excluded)."""
    return _statespace(bounds, space_variant_for(variant))


# ---------------------------------------------------------------------------
# Witness order, positions and odd-repeat truncation
# ---------------------------------------------------------------------------

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


# ---------------------------------------------------------------------------
# Plays and their words
# ---------------------------------------------------------------------------

def random_play(game: ParityGame, length: int, seed: int = 0) -> list[int]:
    """A uniformly random walk of ``length`` vertices, deterministic in seed."""
    rng = random.Random(seed)
    v = rng.randrange(game.n)
    play = [v]
    while len(play) < length:
        v = rng.choice(game.succ[v])
        play.append(v)
    return play


def longest_even_chain(colours: Sequence[int]) -> int:
    """Length of the longest even chain in a finite colour sequence.

    An even chain is a subsequence of positions ``p_1 < ... < p_l`` whose
    colours are all even such that for each consecutive pair the colours
    strictly between them never exceed the larger of the two flanking
    colours.  Returns 0 for a sequence without even colours.

    Runs in O(m^2) time: ``best[i]`` is the longest chain ending at
    position ``i``; scanning candidates ``j`` downwards from ``i`` while
    maintaining the maximum colour seen strictly between ``j`` and ``i``
    decides each pair in O(1).
    """
    m = len(colours)
    best = [0] * m
    result = 0
    for i in range(m):
        if colours[i] % 2 != 0:
            continue
        best[i] = 1
        between = 0  # max colour strictly between j and i
        for j in range(i - 1, -1, -1):
            if (
                colours[j] % 2 == 0
                and best[j] + 1 > best[i]
                and between <= max(colours[i], colours[j])
            ):
                best[i] = best[j] + 1
            between = max(between, colours[j])
        result = max(result, best[i])
    return result


def play_word(game: ParityGame, play: Sequence[int]) -> list[int]:
    """Colour sequence of a play prefix (the word the automaton reads)."""
    return [game.colours[v] for v in play]


# ---------------------------------------------------------------------------
# Counting identity
# ---------------------------------------------------------------------------

def half_budget_identity(ec: int, l: int) -> int:
    """The count at value budget ``2^(l-1)`` predicted from the
    length-bounded count: half of it plus ``ec/2``.  The division must be
    exact; a remainder would mean the counts are off."""
    _check(l >= 2, "identity needs l >= 2")
    total = count_concise_by_length(ec, l)
    if total % 2:
        raise InternalInvariantError(
            f"count_concise_by_length({ec}, {l}) = {total} is odd"
        )
    return total // 2 + ec // 2
