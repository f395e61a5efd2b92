"""Parity game solvers.

Three routes to the winning sets:

* ``zielonka`` -- classic recursive decomposition, independent of the
  witness machinery; serves as the oracle the other solvers are checked
  against.
* ``solve_product`` -- safety product of the game with a separating
  automaton (basic or antagonistic updates): Even wins a vertex iff Even
  can force the product into a WON state.  This reads plays forward.
* ``solve_lifting`` -- least-fixpoint value iteration assigning each
  vertex the witness evidence Even can guarantee against an adversarial
  environment; requires the monotone (antagonistic) update and plays the
  role of the backward reading.

``solve`` is the normalizing front door used by the CLI and the
differential harness.
"""

from __future__ import annotations

import gc
import sys
from collections import deque
from collections.abc import Callable, Iterable

from .automata import SepAutomaton, UpdateKind, admit, bounds_for_game, step_memo
from .errors import ResourceCapError
from .games import EVEN, ODD, ParityGame, generate_random, normalize_colours
from .records import Record
from .updates import ANTAGONISTIC_TABLE_CAP, UpdateVariant, rank_table, space_size
from .witnesses import WON, Bounds


class WinningSets(Record):
    even: frozenset[int]
    odd: frozenset[int]

    def winner(self, v: int) -> int:
        return EVEN if v in self.even else ODD


def attractor(
    game: ParityGame,
    target: Iterable[int],
    player: int,
    restriction: Iterable[int] | None = None,
) -> frozenset[int]:
    """Vertices from which ``player`` can force a visit to ``target``.

    Restricted to the subgame induced by ``restriction`` when given (the
    target is intersected with it).  Standard backward induction with
    out-degree counters for the opponent's vertices.
    """
    alive = set(restriction) if restriction is not None else set(game.vertices())
    attr = {t for t in target if t in alive}
    count = {
        v: len({w for w in game.succ[v] if w in alive})
        for v in alive
        if game.owners[v] != player
    }
    queue = deque(attr)
    while queue:
        w = queue.popleft()
        for v in game.predecessors[w]:
            if v not in alive or v in attr:
                continue
            if game.owners[v] == player:
                attr.add(v)
                queue.append(v)
            else:
                count[v] -= 1
                if count[v] == 0:
                    attr.add(v)
                    queue.append(v)
    return frozenset(attr)


def zielonka(game: ParityGame, *, stats: dict | None = None) -> WinningSets:
    """Recursive decomposition by highest colour."""
    calls = 0
    old_limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(old_limit, 4 * game.n + 100))

    def solve_region(alive: frozenset[int]) -> tuple[frozenset[int], frozenset[int]]:
        nonlocal calls
        calls += 1
        if not alive:
            return frozenset(), frozenset()
        m = max(game.colours[v] for v in alive)
        p = EVEN if m % 2 == 0 else ODD
        target = {v for v in alive if game.colours[v] == m}
        a = attractor(game, target, p, alive)
        sub = solve_region(alive - a)
        win_p, win_o = (sub[0], sub[1]) if p == EVEN else (sub[1], sub[0])
        if not win_o:
            return (alive, frozenset()) if p == EVEN else (frozenset(), alive)
        b = attractor(game, win_o, 1 - p, alive)
        sub2 = solve_region(alive - b)
        win_p2, win_o2 = (sub2[0], sub2[1]) if p == EVEN else (sub2[1], sub2[0])
        win_o2 = win_o2 | b
        return (win_p2, win_o2) if p == EVEN else (win_o2, win_p2)

    try:
        even, odd = solve_region(frozenset(game.vertices()))
    finally:
        sys.setrecursionlimit(old_limit)
    if stats is not None:
        stats["calls"] = calls
    return WinningSets(even=even, odd=odd)


# The most product positions a solve may reach; read at every call.
PRODUCT_CAP = 2_000_000

# The work counter each algorithm writes into ``stats``.
WORK_COUNTERS = {"zielonka": "calls", "lifting": "lifts", "product": "product_positions"}


def solve_product(
    game: ParityGame,
    automaton: SepAutomaton,
    *,
    stats: dict | None = None,
) -> WinningSets:
    """Solve via the safety product with a separating automaton.

    Product positions are (vertex, automaton state); moving along an edge
    (v, w) feeds the source colour of ``v`` into the automaton.  Even wins
    a vertex iff Even can force the product from (vertex, initial) into a
    position whose automaton state is WON.  The automaton must separate
    on ``game`` (see ``admit``), else ValueError.

    The product is explored and solved on exits.  The exit of a position
    (v, q) is (v, q2), with q2 the state after reading v's colour in q.
    Every position with that exit belongs to v's owner and moves to the
    same positions (w, q2), so the game from each of them is the game
    from the exit, and each has the exit's winner.  Exits with q2 WON
    win at once and are not expanded.  Exploration only finds the exits
    and records their predecessors; a repeated edge is followed once per
    copy.  Positions are counted, not stored, after exploration: (w, q)
    is reached iff q is the initial state or the state of an exit (v, q)
    of a predecessor v of w, WON exits included, and
    ``stats["product_positions"]`` is the number of such pairs.  Each
    exit is the exit of a position of its own, so exploration stops as
    soon as the exits outnumber ``PRODUCT_CAP``; the final count decides
    the cap exactly.
    """
    b = automaton.bounds
    admit(game, b)
    # Automaton states are small ints, and moves[d][q] is the state after
    # reading d in state q, or -1 until take(q, d) computes it.  Two step
    # sources: antagonistic steps within the table cap read the rank
    # table on statespace ranks; every other step goes through the
    # memo of interned ids (``step_memo``), which enumerates nothing and
    # is shared by every solve with the same bounds and update kind.
    table = None
    if automaton.kind is UpdateKind.ANTAGONISTIC:
        table = rank_table(b, automaton.variant)
    if table is None:
        _, state_id, moves, take = step_memo(b, automaton.variant, automaton.kind)
        won, initial = state_id[WON], state_id[automaton.initial]
    else:
        # The columns are full, so nothing is ever taken.  The all-Blank
        # initial state is the least, of rank 0.
        won, moves = table
        initial, take = 0, None

    # The lists of later predecessors are tracked containers, so the
    # cyclic collector would still run during the solve, and each full
    # pass would walk every cached table too.  Nothing the solve builds
    # forms a cycle, and its containers are freed when ``_solve_exits``
    # returns, before the collector resumes.
    collecting = gc.isenabled()
    gc.disable()
    try:
        winning, positions = _solve_exits(game, moves, take, won, initial, PRODUCT_CAP, b)
    finally:
        if collecting:
            gc.enable()
    even = frozenset(v for v in game.vertices() if winning[v])
    if stats is not None:
        stats["product_positions"] = positions
    return WinningSets(even=even, odd=frozenset(game.vertices()) - even)


def _solve_exits(
    game: ParityGame,
    moves: dict[int, list[int]],
    take: Callable[[int, int], int] | None,
    won: int,
    initial: int,
    cap: int,
    bounds: Bounds,
) -> tuple[list[bool], int]:
    """Explore and solve the product on exits (see ``solve_product``):
    whether each start exit (v, initial) is won, in vertex order, and the
    number of product positions.  Exploration finds the exits; the
    positions are counted from the exit maps and the countdowns seeded
    after it."""
    # Exits are numbered in order of discovery (exit_of[v] maps q to the
    # number of (v, q); 0..n-1 are the start exits) and expanded in that
    # order, breadth first: expanding x = (v, q) makes x a predecessor of
    # the exits (w, q2) of its successor positions (w, q), once per edge
    # (v, w), so a repeated edge lists x once per copy.  Exit y's first
    # predecessor is first[y] (-1 for a start exit), any others more[y]
    # (None until it has a second).
    n = game.n
    colours = game.colours
    exit_of: list[dict[int, int]] = [{} for _ in range(n)]
    # rows[v]: for each successor w of v, w's moves row (the row of w's
    # colour; ``take`` extends rows in place) and w's exit map.
    rows = [[(w, moves[colours[w]], exit_of[w]) for w in ws] for ws in game.succ]
    vertex_of = list(game.vertices())
    state_of = []
    for v in vertex_of:
        row = moves[colours[v]]
        q2 = row[initial]
        if q2 < 0:
            q2 = row[initial] = take(initial, colours[v])
        exit_of[v][q2] = v
        state_of.append(q2)
    first = [-1] * n
    more: list[list[int] | None] = [None] * n
    for x, (v, q) in enumerate(zip(vertex_of, state_of)):  # the lists grow while this runs
        if q == won:
            continue
        for w, row, exits in rows[v]:
            q2 = row[q]
            if q2 < 0:
                q2 = row[q] = take(q, colours[w])
            y = exits.get(q2)
            if y is None:
                exits[q2] = len(first)
                vertex_of.append(w)
                state_of.append(q2)
                first.append(x)
                more.append(None)
            elif more[y] is None:
                more[y] = [x]
            else:
                more[y].append(x)
        if len(first) > cap:  # each exit has a position of its own
            break
    # Position (w, q) is reached iff q is the initial state or the state
    # of an exit (v, q) of a predecessor v of w, WON exits included.
    positions = sum(len({initial}.union(*[exit_of[v] for v in vs])) for vs in game.predecessors)
    if positions > cap:
        raise ResourceCapError(f"product exceeds cap of {cap} positions (bounds {bounds})")

    # Backward induction over the exits (successor-closed), one countdown
    # per exit: an exit wins once its countdown reaches 0.  WON exits start
    # at 0 and are queued, Even exits at 1 (one winning successor) and Odd
    # exits at their number of successors, repeats included (all of them
    # winning).  An exit is a predecessor of each successor once per edge,
    # so its countdown reaches 0 once and it joins the queue once.  The
    # start exits' first predecessor -1 reads the extra slot count[-1],
    # which stays < 0.
    need = [1 if o == EVEN else len(ws) for o, ws in zip(game.owners, game.succ)]
    count = [need[v] for v in vertex_of]
    queue = []
    for exits in exit_of:  # a vertex has at most one WON exit
        y = exits.get(won)
        if y is not None:
            count[y] = 0
            queue.append(y)
    count.append(-1)
    for t in queue:  # the queue grows while this runs
        x = first[t]
        c = count[x] - 1
        count[x] = c
        if not c:
            queue.append(x)
        xs = more[t]
        if xs is not None:
            for x in xs:
                c = count[x] - 1
                count[x] = c
                if not c:
                    queue.append(x)
    return [c <= 0 for c in count[:n]], positions


def solve_lifting(
    game: ParityGame,
    bounds: Bounds,
    variant: UpdateVariant,
    *,
    stats: dict | None = None,
) -> WinningSets:
    """Solve by value iteration with the antagonistic update.

    Each vertex carries the best witness evidence its owner can guarantee;
    a vertex is re-evaluated as the owner-best antagonistic update over
    its outgoing edges (max for Even, min for Odd, feeding the source
    colour).  Values only ever increase, so the FIFO worklist reaches the
    least fixpoint; Even wins exactly the vertices that stabilise at WON.

    Values are statespace ranks (WON is the rank past the last state), so
    the witness order is integer order and an update is a table lookup
    in the column ``col`` of the vertex's colour.  A pop reads columns
    only when a successor's lift can have changed its answer, since each
    vertex keeps a justification:

    * an Even vertex, the maximum of ``col[mu[w]]`` over its successors
      ``w``.  It starts at ``col[0]`` and is raised by one read whenever
      a successor lifts, so a pop reads it and scans nothing;
    * an Odd vertex, the successor that gave its minimum at its last
      scan, or -1 once that successor has lifted (or before any scan).
      A pop scans its successors only at -1.

    Columns are suffix minima, so ``col`` never decreases, and measures
    only rise.  The Even maximum is therefore exactly what a full scan
    would find.  The Odd minimum stays what the last scan found until
    the successor that gave it lifts, and ``mu[v]`` is at least that
    minimum, so such a pop would not lift.  Every pop lifts exactly when
    a full scan would, to the same value: the queue, its order, every
    lift and the answer are those of the full-scan loop
    (``full_scan_lifting`` in ``tests/oracles.py``).

    The automaton on ``bounds`` must separate on ``game`` (see
    ``admit``), else ValueError.  Raises ResourceCapError before any work
    when the statespace is above the antagonistic table cap.
    """
    admit(game, bounds)
    table = rank_table(bounds, variant)
    if table is None:
        raise ResourceCapError(
            f"{variant.value} statespace for {bounds} has "
            f"{space_size(bounds, variant)} states, above the antagonistic "
            f"table cap of {ANTAGONISTIC_TABLE_CAP}"
        )
    won, columns = table
    mu, lifts = _lift(game, columns)
    even = frozenset(v for v in game.vertices() if mu[v] == won)
    if stats is not None:
        stats["lifts"] = lifts
    return WinningSets(even=even, odd=frozenset(game.vertices()) - even)


def _lift(game: ParityGame, columns: dict[int, list[int]]) -> tuple[list[int], int]:
    """The least fixpoint of lifting on the columns of a rank table, in
    statespace ranks per vertex, and the number of lifts taken to reach
    it, in FIFO worklist order from every vertex in vertex order, with
    the justifications ``just`` (see ``solve_lifting``)."""
    column = [columns[c] for c in game.colours]
    succ = game.succ
    preds = game.predecessors
    even_owned = [o == EVEN for o in game.owners]
    mu = [0] * game.n  # every vertex starts at the all-Blank state, the least
    just = [col[0] if even else -1 for col, even in zip(column, even_owned)]
    in_queue = [True] * game.n
    queue: deque[int] = deque(game.vertices())
    lifts = 0
    while queue:
        v = queue.popleft()
        in_queue[v] = False
        if even_owned[v]:
            new = just[v]
        elif just[v] < 0:
            col = column[v]
            ws = succ[v]
            low = ws[0]
            new = col[mu[low]]
            for w in ws:
                x = col[mu[w]]
                if x < new:
                    new = x
                    low = w
            just[v] = low
        else:
            continue
        if new > mu[v]:
            mu[v] = new
            lifts += 1
            for p in preds[v]:
                if even_owned[p]:
                    x = column[p][new]
                    if x > just[p]:
                        just[p] = x
                elif just[p] == v:
                    just[p] = -1
                if not in_queue[p]:
                    in_queue[p] = True
                    queue.append(p)
    return mu, lifts


def solve(
    game: ParityGame,
    algo: str = "zielonka",
    variant: UpdateVariant | None = None,
    kind: UpdateKind | None = None,
    e: int | None = None,
    *,
    stats: dict | None = None,
) -> WinningSets:
    """Normalizing front door: solve with any algorithm/variant/update.

    The one place a witness solve is decided.  ``variant`` defaults to
    the concise rule set, and ``kind`` to the antagonistic update for
    lifting and the basic one for product; zielonka takes none of the
    witness options (``variant``, ``kind``, ``e``).  Colours are
    normalized (winner-preserving) and the bounds derived once, ``e``
    defaulting to the number of even-coloured vertices; a budget of 0
    means Odd wins everywhere, with no witness machinery and a work count
    of 0.
    """
    if algo not in ("zielonka", "lifting", "product"):
        raise ValueError(f"unknown algorithm {algo!r}")
    if algo == "zielonka":
        options = (("variant", variant), ("update kind", kind), ("budget e", e))
        given = [name for name, x in options if x is not None]
        if given:
            raise ValueError(f"zielonka takes no {', '.join(given)}")
        return zielonka(normalize_colours(game)[0], stats=stats)
    if variant is None:
        variant = UpdateVariant.CONCISE
    if kind is None:
        kind = UpdateKind.ANTAGONISTIC if algo == "lifting" else UpdateKind.BASIC
    elif algo == "lifting" and kind is UpdateKind.BASIC:
        raise ValueError("lifting requires the antagonistic update (monotonicity)")
    norm, _ = normalize_colours(game)
    bounds = bounds_for_game(norm, e)
    if bounds is None:
        if stats is not None:
            stats[WORK_COUNTERS[algo]] = 0
        return WinningSets(even=frozenset(), odd=frozenset(norm.vertices()))
    if algo == "lifting":
        return solve_lifting(norm, bounds, variant, stats=stats)
    return solve_product(norm, SepAutomaton(bounds, variant, kind), stats=stats)


# ---------------------------------------------------------------------------
# Differential harness
# ---------------------------------------------------------------------------

DIFF_METHODS: tuple[tuple[str, str, UpdateVariant, UpdateKind], ...] = tuple(
    [
        ("product_" + v.value + "_" + k.value, "product", v, k)
        for v in UpdateVariant
        for k in (UpdateKind.BASIC, UpdateKind.ANTAGONISTIC)
    ]
    + [("lifting_" + v.value, "lifting", v, UpdateKind.ANTAGONISTIC) for v in UpdateVariant]
)


def differential(
    seeds: Iterable[int],
    n: int = 8,
    max_colour: int = 6,
    out_degree: tuple[int, int] = (1, 3),
) -> list[dict]:
    """Solve random games with every method and record (dis)agreements.

    One row per seed: the Even winning set of each method as a bitstring
    (vertex 0 leftmost, '1' = Even wins), each method's work counter, and
    an overall agreement flag against the recursive oracle.
    """
    rows = []
    for seed in seeds:
        game = generate_random(n, max_colour, out_degree, seed)
        stats: dict = {}
        oracle = solve(game, "zielonka", stats=stats)
        row: dict = {
            "seed": seed,
            "n": game.n,
            "max_colour": max_colour,
            "e": game.even_vertex_count,
            "zielonka_even": _bitmap(oracle.even, game.n),
            "zielonka_steps": stats[WORK_COUNTERS["zielonka"]],
        }
        agree = True
        for name, algo, variant, kind in DIFF_METHODS:
            st: dict = {}
            res = solve(game, algo, variant, kind, stats=st)
            row[name + "_even"] = _bitmap(res.even, game.n)
            row[name + "_steps"] = st[WORK_COUNTERS[algo]]
            agree = agree and res == oracle
        row["agree"] = agree
        rows.append(row)
    return rows


def _bitmap(vertices: frozenset[int], n: int) -> str:
    return "".join("1" if v in vertices else "0" for v in range(n))
