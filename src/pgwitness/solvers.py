"""Parity game solvers.

Three routes to the winning sets:

* ``zielonka`` -- classic recursive decomposition, independent of the
  witness machinery; serves as the oracle the other solvers are checked
  against.
* ``solve_product`` -- safety product of the game with a separating
  automaton (basic or antagonistic updates): Even wins a vertex iff Even
  can force the product into a WON state.  This reads plays forward.
  Antagonistic products within the table cap are solved by one
  threshold rank per vertex (``_solve_thresholds``): the update is
  monotone, so the states that win at a vertex form an up-set of ranks.
  Basic products, whose update is not monotone, and antagonistic ones
  above the cap, whose memo ids have no rank order, are solved by
  backward induction over exits (``_solve_exits``).
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
from bisect import bisect_left
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

    The product is explored on exits.  The exit of a position (v, q) is
    (v, q2), with q2 the state after reading v's colour in q.  Every
    position with that exit belongs to v's owner and moves to the same
    positions (w, q2), so the game from each of them is the game from the
    exit, and each has the exit's winner.  Exits with q2 WON win at once
    and are not expanded; a repeated edge is followed once per copy.
    Positions are counted, not stored, after exploration (``_positions``),
    and ``stats["product_positions"]`` is their number.  Each exit is the
    exit of a position of its own, so exploration stops as soon as the
    exits outnumber ``PRODUCT_CAP``; the final count decides the cap
    exactly.

    Which solve runs is ``rank_table``'s one choice.  When it gives a
    table (antagonistic steps within the table cap), the product is
    solved by one threshold rank per vertex (``_solve_thresholds``);
    otherwise, for basic products and antagonistic ones above the cap,
    by backward induction over the exits (``_solve_exits``).  Both give
    the same winners and the same count.
    """
    b = automaton.bounds
    admit(game, b)
    # Automaton states are small ints.  Two step sources: antagonistic
    # steps within the table cap read the rank table on statespace ranks;
    # every other step goes through the memo of interned ids
    # (``step_memo``), where moves[d][q] is the state after reading d in
    # state q, or -1 until take(q, d) computes it.  The memo enumerates
    # nothing and is shared by every solve with the same bounds and
    # update kind.
    table = None
    if automaton.kind is UpdateKind.ANTAGONISTIC:
        table = rank_table(b, automaton.variant)
    if table is None:
        _, state_id, moves, take = step_memo(b, automaton.variant, automaton.kind)
        solve_on, args = _solve_exits, (moves, take, state_id[WON], state_id[automaton.initial])
    else:
        solve_on, args = _solve_thresholds, table

    # The exit sets, the queued exits and, on the exits path, the lists
    # of later predecessors are tracked containers, so the cyclic
    # collector would still run during the solve, and each full pass
    # would walk every cached table too.  Nothing the solve builds forms
    # a cycle, and its containers are freed when it returns, before the
    # collector resumes.
    collecting = gc.isenabled()
    gc.disable()
    try:
        winning, positions = solve_on(game, *args)
    finally:
        if collecting:
            gc.enable()
    if winning is None:
        raise ResourceCapError(f"product exceeds cap of {PRODUCT_CAP} positions (bounds {b})")
    even = frozenset(v for v in game.vertices() if winning[v])
    if stats is not None:
        stats["product_positions"] = positions
    return WinningSets(even=even, odd=frozenset(game.vertices()) - even)


def _positions(game: ParityGame, exits: list, initial: int) -> int:
    """The number of product positions reached, from the states of the
    exits found at each vertex (``exits[v]``, a set or a dict keyed by
    state): position (w, q) is reached iff q is the initial state or the
    state of an exit (v, q) of a predecessor v of w, WON exits included."""
    return sum(len({initial}.union(*[exits[v] for v in vs])) for vs in game.predecessors)


def _solve_thresholds(
    game: ParityGame, won: int, columns: dict[int, list[int]]
) -> tuple[list[bool] | None, int]:
    """Solve an antagonistic product on the columns of a rank table (see
    ``solve_product``): whether Even wins each vertex, in vertex order,
    and the number of product positions, or None for the answer over
    ``PRODUCT_CAP`` positions.

    States are statespace ranks: the initial all-Blank state is rank 0
    and WON is ``won``, the greatest.  Position (v, q) moves to (w,
    col_v[q]) for each successor w, where ``col_v`` is the column of v's
    colour.  Columns are suffix minima, so non-decreasing, and
    ``col_v[won] == won``.

    *Up-set lemma.*  If Even wins (v, q) and q <= q', Even wins (v, q').
    The two positions have one owner, and their moves go to the same
    vertices with states ``col_v[q] <= col_v[q']``.  So Even, playing
    from (v, q') as from (v, q) at each vertex, keeps every play at
    least as high, step by step, as a play from (v, q) that Even wins.
    That play reaches WON, the greatest rank, within some number of
    steps, and so does the higher one.  The states that win at v are
    therefore the ranks from one least rank up, ``alpha[v]``, and Even
    wins v iff ``alpha[v] == 0``.  Given the successors' thresholds, an
    exit (v, t) wins iff ``t >= T``, where ``T`` is the least
    ``alpha[w]`` over v's successors w when Even owns v and the greatest
    when Odd does (``alpha[w] <= won``, since (w, won) moves to WON).
    So ``alpha[v] = bisect_left(col_v, T)``.

    *Least fixpoint.*  Even's winning positions are the least fixpoint
    of ``G``: the positions that move to WON, and every position whose
    owner can move into the set (Even) or must (Odd).  Each vector of
    thresholds stands for a set that is an up-set at each vertex, and
    ``G`` of such a set is one too, by the argument above, with
    thresholds ``F(alpha)[v] = bisect_left(col_v, T(alpha))``.  ``F`` is
    monotone, and a lower vector stands for a larger set.  Let
    ``alpha*`` be the thresholds of the winning positions.  The seed
    ``bisect_left(col_v, won)`` is ``F`` of all-``won``, so it is at
    least ``F(alpha*) = alpha*``.  A FIFO worklist, from every vertex in
    vertex order, lowers ``alpha[v]`` to ``F(alpha)[v]`` at each pop
    where that is lower, which by induction keeps ``alpha >= alpha*``.
    A vertex is queued again whenever its ``T`` can have fallen, so at
    the end ``alpha <= F(alpha)``: the set that ``alpha`` stands for
    contains its image under ``G``, and so contains the least fixpoint.
    The loop therefore stops at ``alpha*``.  The winner of a position depends only on the
    positions it reaches, so solving over every rank gives the winners
    of the product reached from the start positions.

    Exploration only counts positions.  It keeps the exit states of
    each vertex in a set, and no ids, predecessors or countdowns.  The
    worklist keeps a justification ``just`` per vertex, as ``_lift``
    does:

    * an Even vertex, the least ``alpha[w]`` over its successors.  It is
      lowered by one read whenever a successor's threshold falls below
      it, which queues the vertex, so a pop reads ``T`` and scans
      nothing;
    * an Odd vertex, the successor that gave its greatest ``alpha[w]``
      at its last scan.  A successor's fall queues the vertex only when
      that successor is its justification: the greatest stays what the
      scan found until then.  A pop scans.
    """
    cap = PRODUCT_CAP
    n = game.n
    column = [columns[c] for c in game.colours]
    # exits[v]: the states of v's exits found so far.  rows[v]: for each
    # successor w of v, w's column, w's exit states and w.
    exits = [{col[0]} for col in column]
    rows = [[(column[w], exits[w], w) for w in ws] for ws in game.succ]
    pending = deque(enumerate(col[0] for col in column))
    found = n
    while pending:
        v, q = pending.popleft()
        if q == won:
            continue
        for col, seen, w in rows[v]:
            q2 = col[q]
            if q2 not in seen:
                seen.add(q2)
                pending.append((w, q2))
                found += 1
        if found > cap:  # each exit has a position of its own
            break
    positions = _positions(game, exits, 0)
    if positions > cap:
        return None, positions

    succ = game.succ
    preds = game.predecessors
    even_owned = [o == EVEN for o in game.owners]
    alpha = [bisect_left(col, won) for col in column]
    just = [min([alpha[w] for w in ws]) if even else -1 for ws, even in zip(succ, even_owned)]
    queued = [True] * n
    queue: deque[int] = deque(game.vertices())
    while queue:
        w = queue.popleft()
        queued[w] = False
        if even_owned[w]:
            t = just[w]
        else:
            ws = succ[w]
            top = ws[0]
            t = alpha[top]
            for x in ws:
                y = alpha[x]
                if y > t:
                    t = y
                    top = x
            just[w] = top
        a = bisect_left(column[w], t)
        if a < alpha[w]:
            alpha[w] = a
            for u in preds[w]:
                if even_owned[u]:
                    if a >= just[u]:
                        continue
                    just[u] = a
                elif just[u] != w:
                    continue
                if not queued[u]:
                    queued[u] = True
                    queue.append(u)
    return [not a for a in alpha], positions


def _solve_exits(
    game: ParityGame,
    moves: dict[int, list[int]],
    take: Callable[[int, int], int],
    won: int,
    initial: int,
) -> tuple[list[bool] | None, int]:
    """Explore and solve the product on exits (see ``solve_product``) by
    backward induction: whether each start exit (v, initial) is won, in
    vertex order, and the number of product positions.  This serves
    basic products, whose update is not monotone, and antagonistic ones
    above the table cap, whose memo ids have no rank order; neither has
    the up-set that ``_solve_thresholds`` reads.  Exploration finds the
    exits; the positions are counted from the exit maps and the
    countdowns seeded after it.  Over ``PRODUCT_CAP`` positions there is
    no induction, and None stands for the answer."""
    cap = PRODUCT_CAP
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
    positions = _positions(game, exit_of, initial)
    if positions > cap:
        return None, positions

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
    witness options (``variant``, ``kind``, ``e``), and reads colours
    only by order and parity, so it solves the game as given.  For the
    witness solvers colours are normalized (which keeps both) and the
    bounds derived once, ``e`` defaulting to the number of even-coloured
    vertices; a budget of 0 means Odd wins everywhere, with no witness
    machinery and a work count of 0.
    """
    if algo not in ("zielonka", "lifting", "product"):
        raise ValueError(f"unknown algorithm {algo!r}")
    if algo == "zielonka":
        options = (("variant", variant), ("update kind", kind), ("budget e", e))
        given = [name for name, x in options if x is not None]
        if given:
            raise ValueError(f"zielonka takes no {', '.join(given)}")
        return zielonka(game, stats=stats)
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
