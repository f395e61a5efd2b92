from __future__ import annotations

import gc
import random

import pytest

import oracles
from conftest import HARNESS_CHUNKS, game
from oracles import brute_force_even_region, full_scan_lifting, product_even_region
from pgwitness import automata, solvers, updates, witnesses
from pgwitness.automata import SepAutomaton, UpdateKind, bounds_for_game
from pgwitness.cli import rows_csv
from pgwitness.errors import ResourceCapError
from pgwitness.games import EVEN, ODD, ParityGame, generate_random, normalize_colours
from pgwitness.solvers import (
    WinningSets,
    DIFF_METHODS,
    attractor,
    differential,
    solve,
    solve_lifting,
    solve_product,
    zielonka,
)
from pgwitness.updates import UpdateVariant
from pgwitness.witnesses import Bounds

ALL_VERTICES = lambda g: frozenset(g.vertices())  # noqa: E731


# ---------------------------------------------------------------------------
# attractor
# ---------------------------------------------------------------------------


def _chain_game():
    # v0 (Odd) -> v1 (Even) -> v2 (Odd, self-loop); v1 can also escape to v0.
    # v0 lists its successor twice to exercise duplicate-edge handling.
    return game([ODD, EVEN, ODD], [1, 1, 1], [[1, 1], [2, 0], [2]])


def test_attractor_even_pulls_the_whole_chain():
    g = _chain_game()
    assert attractor(g, {2}, EVEN) == {0, 1, 2}


def test_attractor_respects_restriction():
    g = _chain_game()
    assert attractor(g, {2}, EVEN, restriction={1, 2}) == {1, 2}
    # Target outside the restriction is dropped.
    assert attractor(g, {2}, EVEN, restriction={0, 1}) == frozenset()


def test_attractor_odd_cannot_use_evens_escape_edge():
    g = _chain_game()
    # From v1 (Even-owned) Even escapes to v0, so Odd attracts only v2.
    assert attractor(g, {2}, ODD) == {2}


def test_attractor_duplicate_successors_count_once():
    # v0 is Even-owned but the *opponent* counter path is what dedupes:
    # make v0 Odd's problem by asking for Even's attractor through it.
    g = game([ODD, EVEN], [1, 2], [[1, 1], [1]])
    assert attractor(g, {1}, EVEN) == {0, 1}


def test_attractor_repeated_edge_into_target_counts_once():
    # v0 (Odd) reaches the target v1 twice but can still escape to v2.
    g = game([ODD, EVEN, ODD], [1, 2, 1], [[1, 1, 2], [1], [2]])
    assert attractor(g, {1}, EVEN) == {1}


# ---------------------------------------------------------------------------
# zielonka against the brute-force oracle
# ---------------------------------------------------------------------------


def test_zielonka_single_even_loop():
    g = game([EVEN], [2], [[0]])
    res = zielonka(g)
    assert res.even == {0} and res.odd == frozenset()
    assert res.winner(0) == EVEN


def test_zielonka_single_odd_loop():
    g = game([EVEN], [1], [[0]])
    res = zielonka(g)
    assert res.even == frozenset() and res.odd == {0}
    assert res.winner(0) == ODD


def test_zielonka_two_cycle_highest_colour_even():
    g = game([EVEN, ODD], [2, 1], [[1], [0]])
    assert zielonka(g).even == {0, 1}


def test_solve_zielonka_takes_no_budget():
    g = generate_random(8, 4, (1, 3), 4)
    with pytest.raises(ValueError, match="zielonka takes no budget"):
        solve(g, "zielonka", e=g.even_vertex_count)
    assert solve(g, "zielonka") == zielonka(normalize_colours(g)[0])


def test_zielonka_matches_brute_force_on_random_games():
    for seed in range(60):
        n = 3 + seed % 4
        g = generate_random(n, 1 + seed % 5, (1, 2), seed)
        expected = brute_force_even_region(g)
        got = zielonka(g)
        assert got.even == expected, f"seed {seed}"
        assert got.odd == ALL_VERTICES(g) - expected


def _game_with_repeated_successors(seed: int):
    """A small random game whose successor lists are drawn with
    replacement, so most of them repeat a vertex."""
    rng = random.Random(seed)
    n = 3 + seed % 4
    return game(
        [rng.randrange(2) for _ in range(n)],
        [rng.randint(1, 5) for _ in range(n)],
        [rng.choices(range(n), k=rng.randint(2, 3)) for _ in range(n)],
    )


def test_zielonka_matches_brute_force_with_repeated_successors():
    for seed in range(150):
        g = _game_with_repeated_successors(seed)
        assert zielonka(g).even == brute_force_even_region(g), f"seed {seed}"


def test_zielonka_records_call_count():
    stats: dict = {}
    zielonka(game([EVEN, ODD], [2, 1], [[1], [0]]), stats=stats)
    assert stats["calls"] >= 1


# ---------------------------------------------------------------------------
# product solver
# ---------------------------------------------------------------------------


def test_product_even_self_loop_accepts():
    g = game([EVEN], [2], [[0]])
    aut = SepAutomaton(bounds=bounds_for_game(g), variant=UpdateVariant.CONCISE)
    stats: dict = {}
    res = solve_product(g, aut, stats=stats)
    assert res.even == {0}
    assert stats["product_positions"] >= 2


def test_product_rejects_colours_outside_automaton_range():
    g = game([EVEN], [3], [[0]])
    small = game([EVEN], [2], [[0]])
    aut = SepAutomaton(bounds=bounds_for_game(small), variant=UpdateVariant.CLASSIC)
    with pytest.raises(ValueError):
        solve_product(g, aut)


def test_product_cap_is_enforced(monkeypatch):
    g = generate_random(6, 4, (1, 3), seed=1)
    aut = SepAutomaton(bounds=bounds_for_game(g), variant=UpdateVariant.CLASSIC)
    monkeypatch.setattr(solvers, "PRODUCT_CAP", 5)
    with pytest.raises(ResourceCapError):
        solve_product(g, aut)


def test_witness_solvers_admit_only_an_automaton_that_separates():
    # The game has 3 even-coloured vertices and colours 1..4.  At e=1 the
    # classic basic product used to give Even vertex 1, which zielonka
    # gives to Odd.
    g = normalize_colours(generate_random(8, 4, (1, 3), 4))[0]
    assert g.even_vertex_count == 3 and (min(g.colours), max(g.colours)) == (1, 4)
    rejected = [(Bounds(4, e), "unsound") for e in (1, 2)] + [
        (Bounds(3, 3), "outside automaton colour range"),
        (Bounds(4, 3, min_colour=2), "outside automaton colour range"),
    ]
    for variant in UpdateVariant:
        for bounds, reason in rejected:
            for kind in UpdateKind:
                with pytest.raises(ValueError, match=reason):
                    solve_product(g, SepAutomaton(bounds, variant, kind))
            with pytest.raises(ValueError, match=reason):
                solve_lifting(g, bounds, variant)
        assert solve_lifting(g, Bounds(4, 3), variant) == zielonka(g), variant
        for kind in UpdateKind:
            assert solve_product(g, SepAutomaton(Bounds(4, 3), variant, kind)) == zielonka(g)


# ---------------------------------------------------------------------------
# lifting solver
# ---------------------------------------------------------------------------


def test_lifting_even_self_loop_takes_two_lifts():
    g = game([EVEN], [2], [[0]])
    stats: dict = {}
    res = solve_lifting(g, bounds_for_game(g), UpdateVariant.CONCISE, stats=stats)
    # blank -> <2> -> WON
    assert res.even == {0}
    assert stats["lifts"] == 2


def test_lifting_odd_self_loop_stays_at_bottom():
    # Single odd colour: the budget defaults to 0, Odd wins outright.
    g = game([EVEN], [1], [[0]])
    stats: dict = {}
    res = solve(g, "lifting", UpdateVariant.CLASSIC, UpdateKind.ANTAGONISTIC, stats=stats)
    assert res.odd == {0}
    assert stats["lifts"] == 0


def test_lifting_odd_self_loop_with_forced_budget_resets_forever():
    # Even with a budget, the only colour is the odd maximum, so every
    # update resets to all-blank and nothing ever lifts.
    g = game([EVEN], [1], [[0]])
    stats: dict = {}
    res = solve_lifting(g, bounds_for_game(g, 2), UpdateVariant.COLOUR, stats=stats)
    assert res.odd == {0}
    assert stats["lifts"] == 0


def test_lifting_two_cycle_even_wins_everywhere():
    g = game([EVEN, ODD], [2, 1], [[1], [0]])
    for variant in UpdateVariant:
        res = solve_lifting(g, bounds_for_game(g), variant)
        assert res.even == {0, 1}, variant


def test_lifting_rejects_unnormalized_colour_zero():
    g = game([EVEN], [0], [[0]])
    with pytest.raises(ValueError):
        solve_lifting(g, Bounds(max_colour=2, e=1), UpdateVariant.CONCISE)


def _small_games_with_self_loops_and_repeated_successors(count: int, seed: int):
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(1, 7)
        yield ParityGame(
            owners=tuple(rng.randrange(2) for _ in range(n)),
            colours=tuple(rng.randint(0, 6) for _ in range(n)),
            succ=tuple(tuple(rng.choices(range(n), k=rng.randint(1, 4))) for _ in range(n)),
        )


def test_justified_lifting_takes_the_lifts_of_the_full_scan_oracle():
    """The package loop ends at the full-scan loop's measures, vertex by
    vertex, after as many lifts, in every rule set: on the harness games
    and on small games with self-loops and repeated successors."""
    harness = [
        generate_random(n, mc, (1, 3), seed) for n, mc, seeds in HARNESS_CHUNKS for seed in seeds
    ]
    small = list(_small_games_with_self_loops_and_repeated_successors(300, 22))
    assert sum(any(v in ws for v, ws in enumerate(g.succ)) for g in small) > 150
    assert sum(any(len(set(ws)) < len(ws) for ws in g.succ) for g in small) > 150
    solved = 0
    for g in harness + small:
        norm = normalize_colours(g)[0]
        bounds = bounds_for_game(norm)
        if bounds is None:
            continue
        for variant in UpdateVariant:
            _, columns = updates.rank_table(bounds, variant)
            assert solvers._lift(norm, columns) == full_scan_lifting(norm, bounds, variant)
            solved += 1
    assert solved == 1983


def test_justified_lifting_reads_few_column_entries(monkeypatch):
    """Concise lifting of one 300-vertex game reads 37,869 column entries
    where the full-scan loop reads 200,627, for the same 14,299 lifts,
    and reports no stats key beyond the lifts."""
    reads = [0]

    class CountingColumn(list):
        def __getitem__(self, i):
            reads[0] += 1
            return list.__getitem__(self, i)

    def counting_table(bounds, variant):
        won, columns = updates.rank_table(bounds, variant)
        return won, {d: CountingColumn(col) for d, col in columns.items()}

    monkeypatch.setattr(solvers, "rank_table", counting_table)
    monkeypatch.setattr(oracles, "rank_table", counting_table)
    g = normalize_colours(generate_random(300, 8, (2, 8), 4))[0]
    bounds = bounds_for_game(g)
    stats: dict = {}
    solve_lifting(g, bounds, UpdateVariant.CONCISE, stats=stats)
    justified, reads[0] = reads[0], 0
    _, lifts = full_scan_lifting(g, bounds, UpdateVariant.CONCISE)
    assert stats == {"lifts": 14_299} and lifts == 14_299
    assert 5 * justified < reads[0]
    assert (justified, reads[0]) == (37_869, 200_627)


# An 8-vertex game whose colours normalise to 1..10.  At the forced budget
# e=484 both update statespaces are above the antagonistic table cap
# (291 606 concise states, 624 232 classic ones).
ABOVE_CAP_GAME = generate_random(8, 10, (1, 3), 13)
ABOVE_CAP_E = 484


def test_lifting_above_the_table_cap_fails_before_any_work():
    norm, _ = normalize_colours(ABOVE_CAP_GAME)
    assert max(norm.colours) == 10
    tables = updates._antagonistic_table.cache_info().misses
    spaces = witnesses._statespace.cache_info().misses
    for variant in UpdateVariant:
        with pytest.raises(ResourceCapError, match="table cap"):
            solve(ABOVE_CAP_GAME, "lifting", variant, UpdateKind.ANTAGONISTIC, ABOVE_CAP_E)
    assert updates._antagonistic_table.cache_info().misses == tables
    assert witnesses._statespace.cache_info().misses == spaces


# Basic products above the cap that are large enough to count: the
# antagonistic ones of this game run to hundreds of thousands of positions.
ABOVE_CAP_BASIC_GAME = generate_random(8, 10, (1, 3), 11)


def test_product_above_the_table_cap_agrees_with_zielonka():
    oracle = zielonka(ABOVE_CAP_GAME)
    assert oracle.even and oracle.odd
    for variant in UpdateVariant:
        for kind in UpdateKind:
            stats: dict = {}
            got = solve(ABOVE_CAP_GAME, "product", variant, kind, ABOVE_CAP_E, stats=stats)
            assert got == oracle, (variant, kind)
            assert stats["product_positions"] == 983, (variant, kind)
    oracle = zielonka(ABOVE_CAP_BASIC_GAME)
    positions = {}
    for variant in UpdateVariant:
        stats = {}
        got = solve(
            ABOVE_CAP_BASIC_GAME, "product", variant, UpdateKind.BASIC, ABOVE_CAP_E, stats=stats
        )
        assert got == oracle, variant
        positions[variant.value] = stats["product_positions"]
    assert positions == {"classic": 10368, "concise": 4463, "colour": 4455}


def test_product_solve_leaves_the_collector_as_it_found_it(monkeypatch):
    g = generate_random(30, 6, (1, 3), 2)
    aut = SepAutomaton(bounds_for_game(g), UpdateVariant.CONCISE)
    assert gc.isenabled()
    solve_product(g, aut)
    assert gc.isenabled()
    with monkeypatch.context() as m:
        m.setattr(solvers, "PRODUCT_CAP", 1)
        with pytest.raises(ResourceCapError):
            solve_product(g, aut)
    assert gc.isenabled()
    gc.disable()
    try:
        solve_product(g, aut)
        assert not gc.isenabled()
    finally:
        gc.enable()


def test_antagonistic_products_above_the_table_cap_fail_fast(monkeypatch):
    # Above the table cap every antagonistic step is a constructive update,
    # computed once per memo.  The pinned products take 981 of them; those
    # of the seed-11 game run past the memo's cap, which raises and drops
    # the memo.
    classic, antagonistic = UpdateVariant.CLASSIC, UpdateKind.ANTAGONISTIC
    bounds = bounds_for_game(normalize_colours(ABOVE_CAP_GAME)[0], ABOVE_CAP_E)

    def pinned_product_steps():
        stats: dict = {}
        solve(ABOVE_CAP_GAME, "product", classic, antagonistic, ABOVE_CAP_E, stats=stats)
        assert stats["product_positions"] == 983
        moves = automata.step_memo(bounds, classic, antagonistic)[2]
        return sum(q >= 0 for row in moves.values() for q in row)

    assert automata.CONSTRUCTIVE_STEP_CAP == 10_000
    automata._shared_memo.cache_clear()
    assert pinned_product_steps() == 981
    with pytest.raises(ResourceCapError, match="cap of 10000 constructive steps"):
        solve(ABOVE_CAP_BASIC_GAME, "product", classic, antagonistic, ABOVE_CAP_E)
    assert automata._shared_memo.cache_info().currsize == 0
    assert pinned_product_steps() == 981
    # The rule sets share the memo, and each may compute the cap's worth.
    with monkeypatch.context() as m:
        m.setattr(automata, "CONSTRUCTIVE_STEP_CAP", 981)
        for variant in UpdateVariant:
            solve(ABOVE_CAP_GAME, "product", variant, antagonistic, ABOVE_CAP_E)


def test_antagonistic_steps_above_the_table_cap_take_the_constructive_update(monkeypatch):
    # The memo calls the constructive update once per step, through the
    # updates module, and never asks for the table again.  Each product
    # takes 981 steps; the colour one reads the concise rows on colours 1,
    # 2 and the odd ones (same statespace, same rule) and computes only
    # the other 487.
    constructive = updates.antagonistic_update_fast
    calls = []

    def counted(*args):
        calls.append(args)
        return constructive(*args)

    asked = lambda *args: pytest.fail("asked for the table-or-constructive choice")  # noqa: E731
    monkeypatch.setattr(updates, "antagonistic_update_fast", counted)
    monkeypatch.setattr(updates, "rank_table", asked)
    monkeypatch.setattr(SepAutomaton, "step", asked)
    automata._shared_memo.cache_clear()
    for variant in UpdateVariant:
        got = solve(ABOVE_CAP_GAME, "product", variant, UpdateKind.ANTAGONISTIC, ABOVE_CAP_E)
        assert got == zielonka(ABOVE_CAP_GAME), variant
    assert len(calls) == 981 + 981 + 487


@pytest.mark.parametrize(
    "g, e, variants, kind",
    [
        (generate_random(30, 6, (1, 3), 2), None, tuple(UpdateVariant), UpdateKind.BASIC),
        (generate_random(30, 6, (1, 3), 2), None, tuple(UpdateVariant), UpdateKind.ANTAGONISTIC),
        (ABOVE_CAP_BASIC_GAME, ABOVE_CAP_E, tuple(UpdateVariant), UpdateKind.BASIC),
        (ABOVE_CAP_GAME, ABOVE_CAP_E, (UpdateVariant.COLOUR,), UpdateKind.ANTAGONISTIC),
    ],
    ids=["basic-within-cap", "ranks-antagonistic", "basic-above-cap", "interned-antagonistic"],
)
def test_product_cap_admits_exactly_the_product(g, e, variants, kind, monkeypatch):
    # A product of P positions solves under cap=P, with the same count, and
    # fails under cap=P-1, within the table cap and above it, for both step
    # sources.  Under a cap below the n start exits it fails once the first
    # exit is expanded, so a step memo then holds at most the start steps
    # and vertex 0's successor steps.
    norm, _ = normalize_colours(g)
    bounds = bounds_for_game(norm, e)
    memo = kind is UpdateKind.BASIC or e is not None
    for variant in variants:
        above_cap = updates.space_size(bounds, variant) > updates.ANTAGONISTIC_TABLE_CAP
        assert above_cap == (e is not None), variant
        aut = SepAutomaton(bounds=bounds, variant=variant, kind=kind)
        stats: dict = {}
        expected = solve_product(norm, aut, stats=stats)
        positions = stats["product_positions"]
        with monkeypatch.context() as m:
            m.setattr(solvers, "PRODUCT_CAP", positions)
            assert solve_product(norm, aut, stats=stats) == expected, variant
            assert stats["product_positions"] == positions, variant
            for cap in (positions - 1, norm.n - 1):
                m.setattr(solvers, "PRODUCT_CAP", cap)
                automata._shared_memo.cache_clear()
                with pytest.raises(ResourceCapError, match=f"cap of {cap} positions"):
                    solve_product(norm, aut)
        if memo:
            moves = automata.step_memo(bounds, variant, kind)[2]
            taken = sum(q >= 0 for row in moves.values() for q in row)
            assert taken <= norm.n + len(norm.succ[0]), variant


def test_product_positions_are_pinned_at_benchmark_scale():
    # The structure of the cli-random game: 150 vertices, colours up to 8.
    # Classic, concise and colour positions, each basic then antagonistic.
    g = generate_random(150, 8, (1, 3), 1)
    oracle = zielonka(g)
    assert len(oracle.even) == 145
    positions = []
    for variant in UpdateVariant:
        for kind in UpdateKind:
            stats: dict = {}
            assert solve(g, "product", variant, kind, stats=stats) == oracle, (variant, kind)
            positions.append(stats["product_positions"])
    assert positions == [146_845, 164_461, 89_849, 105_204, 92_931, 103_394]


def test_product_cap_fails_before_exploring_the_product(monkeypatch):
    # Exploration stops once the exits outnumber the cap: each expanded
    # exit fills at most one step-memo entry per successor (out-degree at
    # most 3 here), and the start exits at most n more.
    norm, _ = normalize_colours(ABOVE_CAP_BASIC_GAME)
    aut = SepAutomaton(bounds_for_game(norm, ABOVE_CAP_E), UpdateVariant.CLASSIC)
    cap = 50

    def steps_taken():
        moves = automata.step_memo(aut.bounds, aut.variant, aut.kind)[2]
        return sum(q >= 0 for row in moves.values() for q in row)

    automata._shared_memo.cache_clear()
    with monkeypatch.context() as m:
        m.setattr(solvers, "PRODUCT_CAP", cap)
        with pytest.raises(ResourceCapError, match=f"cap of {cap} positions"):
            solve_product(norm, aut)
    assert steps_taken() <= 3 * (cap + 1) + norm.n
    stats: dict = {}
    solve_product(norm, aut, stats=stats)
    assert stats["product_positions"] == 10368
    assert steps_taken() > 10 * (3 * (cap + 1) + norm.n)


def test_product_within_the_table_cap_walks_only_for_the_rank_table(monkeypatch):
    # Basic steps go through the step memo, which enumerates nothing;
    # antagonistic steps read the rank table, built from one block tree
    # per statespace with no state enumerated.  Neither goes through the
    # tuple updates.  No other test solves with this budget, so its
    # block trees are walked here first.
    g = generate_random(30, 6, (1, 3), 2)
    e = g.even_vertex_count + 7
    oracle = zielonka(g)
    stepped = lambda *args: pytest.fail("stepped through a tuple update")  # noqa: E731
    monkeypatch.setattr(SepAutomaton, "step", stepped)
    monkeypatch.setattr(automata, "capped_update", stepped)
    monkeypatch.setattr(updates, "capped_update", stepped)

    def misses():
        return witnesses._statespace.cache_info().misses, witnesses._block_tree.cache_info().misses

    before = misses()
    for variant in UpdateVariant:
        assert solve(g, "product", variant, UpdateKind.BASIC, e) == oracle, variant
    assert misses() == before
    for variant in UpdateVariant:
        assert solve(g, "product", variant, UpdateKind.ANTAGONISTIC, e) == oracle, variant
    assert misses() == (before[0], before[1] + 2)


@pytest.mark.parametrize("variant", list(UpdateVariant), ids=lambda v: v.value)
def test_cold_table_solves_build_no_state_and_run_no_kernel(variant, monkeypatch):
    # A cold lifting solve and a cold antagonistic product within the
    # table cap enumerate no statespace, so they build no state tuple and
    # no rank dict over one, and no column fill runs a rule kernel: the
    # per-Bounds caches then hold the block tree, the rules it was walked
    # by, the columns and the table alone.
    g = generate_random(40, 12, (1, 3), 5)
    e = g.even_vertex_count + 1
    bounds = bounds_for_game(normalize_colours(g)[0], e)
    assert updates.space_size(bounds, variant) <= updates.ANTAGONISTIC_TABLE_CAP
    built = lambda *args: pytest.fail("built states or kernels")  # noqa: E731
    monkeypatch.setattr(witnesses, "_statespace", built)
    monkeypatch.setattr(updates, "_kernels", built)
    monkeypatch.setattr(updates, "_kernel", built)
    other = Bounds(max_colour=2, e=1)
    for algo in ("lifting", "product"):
        # Another Bounds first, so that the solve starts from empty caches.
        witnesses._block_tree(other, witnesses.StatespaceVariant.CONCISE)
        assert solve(g, algo, variant, UpdateKind.ANTAGONISTIC, e) == zielonka(g), algo
        caches = (
            witnesses._block_tree,
            witnesses._rules,
            updates._column,
            updates._antagonistic_table,
        )
        held = [c.cache_info().currsize for c in caches]
        assert held[0] == held[1] == 1 and held[2] > 0 and held[3] == 1, (algo, held)
        assert sum(map(len, witnesses._caches)) == sum(held), algo


def _product_oracle_games():
    yield game([ODD, EVEN, ODD], [2, 1, 2], [[1, 1], [2, 0], [0, 0]])  # duplicate edges
    yield game([EVEN, ODD], [1, 2], [[1, 1, 0, 1], [0, 0]])  # duplicate edges
    yield game([ODD], [2], [[0]])  # one vertex
    yield game([EVEN], [2], [[0, 0]])  # one vertex, duplicate self-loop
    yield game([EVEN, ODD, EVEN], [1, 2, 3], [[0, 1], [1, 2], [2, 0]])  # self-loops
    yield game([ODD, ODD, EVEN], [4, 3, 2], [[0], [1, 2], [2, 1]])  # self-loops
    yield game([ODD, EVEN, EVEN], [3, 2, 1], [[1, 1, 1], [0, 2], [1]])  # one Odd successor
    yield game([ODD, EVEN, ODD], [2, 1, 4], [[2, 2], [0, 1], [1]])  # one Odd successor
    # Colour 3 resets every state, so the start exit of vertex 0 is also
    # the exit of the later positions (0, q).  A start exit has no first
    # predecessor, so all of its predecessors are extra ones.
    yield game([ODD, EVEN], [3, 2], [[1], [1, 0]])
    for seed in range(40):
        yield generate_random(3 + seed % 6, 2 + seed % 5, (1, 3), 100 + seed)


def test_product_matches_the_naive_product_oracle():
    for g in _product_oracle_games():
        norm, _ = normalize_colours(g)
        bounds = bounds_for_game(norm)
        if bounds is None:
            continue
        for variant in UpdateVariant:
            for kind in UpdateKind:
                expected, positions = product_even_region(
                    norm, bounds, variant, kind is UpdateKind.ANTAGONISTIC
                )
                stats: dict = {}
                aut = SepAutomaton(bounds=bounds, variant=variant, kind=kind)
                got = solve_product(norm, aut, stats=stats)
                assert got.even == expected, (g, variant, kind)
                assert stats["product_positions"] == positions, (g, variant, kind)
        assert expected == zielonka(norm).even


# Lifts of the three lifting variants, then product positions of classic,
# concise and colour with basic and antagonistic updates, as the solvers
# counted them before the product moved onto statespace ranks.
PINNED_WORK = {
    0: (197, 197, 212, 2070, 2961, 1800, 2622, 1800, 2622),
    1: (253, 253, 251, 875, 1324, 875, 1132, 928, 1136),
    2: (830, 616, 524, 1546, 2327, 1268, 1825, 1461, 2286),
    3: (511, 488, 430, 950, 1303, 856, 1193, 987, 1207),
    4: (51, 51, 55, 683, 1297, 497, 1141, 686, 1152),
    "demo": (12, 12, 12, 17, 17, 17, 17, 17, 17),
}


@pytest.mark.parametrize("name", list(PINNED_WORK), ids=str)
def test_work_counts_are_pinned(name):
    # generate_random(30, 6, (1, 3), seed), and the README's demo game.
    g = generate_random(5, 3, (1, 3), 1) if name == "demo" else generate_random(30, 6, (1, 3), name)
    oracle = zielonka(g)
    configs = [("lifting", v, UpdateKind.ANTAGONISTIC) for v in UpdateVariant] + [
        ("product", v, k) for v in UpdateVariant for k in UpdateKind
    ]
    work = []
    for algo, variant, kind in configs:
        stats: dict = {}
        assert solve(g, algo, variant, kind, stats=stats) == oracle, (algo, variant, kind)
        work.append(stats.get("lifts", stats.get("product_positions")))
    assert tuple(work) == PINNED_WORK[name]


# ---------------------------------------------------------------------------
# solve() front door
# ---------------------------------------------------------------------------


def test_solve_rejects_budgets_below_the_even_vertex_count():
    # With e=1 both witness solvers used to answer wrong on this game.
    g = generate_random(8, 4, (1, 3), 4)
    assert g.even_vertex_count == 3
    for algo, kind in (("product", UpdateKind.BASIC), ("lifting", UpdateKind.ANTAGONISTIC)):
        with pytest.raises(ValueError, match="unsound"):
            solve(g, algo, UpdateVariant.CONCISE, kind, e=1)
        assert solve(g, algo, UpdateVariant.CONCISE, kind, e=3) == zielonka(g)


def test_solve_normalizes_before_solving():
    # Colours {3, 4} normalize to {1, 2}; winner is unchanged.
    g = game([EVEN, ODD], [4, 3], [[1], [0]])
    assert solve(g, "zielonka").even == {0, 1}
    for algo in ("product", "lifting"):
        res = solve(g, algo, UpdateVariant.COLOUR, UpdateKind.ANTAGONISTIC)
        assert res.even == {0, 1}, algo


def test_solve_defaults_the_witness_options_by_algorithm(monkeypatch):
    # Lifting takes the antagonistic update and product the basic one,
    # both on the concise rule set.
    g = generate_random(8, 4, (1, 3), 0)
    assert solve(g, "lifting") == solve(g, "product") == zielonka(g)
    seen = []
    monkeypatch.setattr(
        solvers, "solve_lifting", lambda game, bounds, variant, stats: seen.append(variant)
    )
    monkeypatch.setattr(
        solvers, "solve_product", lambda game, a, stats: seen.append((a.variant, a.kind))
    )
    solve(g, "lifting")
    solve(g, "product")
    assert seen == [UpdateVariant.CONCISE, (UpdateVariant.CONCISE, UpdateKind.BASIC)]


def test_solve_zielonka_rejects_the_witness_options():
    # As the CLI does, with exit code 2.
    g = generate_random(8, 4, (1, 3), 0)
    with pytest.raises(ValueError, match="zielonka takes no variant, update kind$"):
        solve(g, "zielonka", UpdateVariant.COLOUR, UpdateKind.ANTAGONISTIC)
    with pytest.raises(ValueError, match="zielonka takes no update kind$"):
        solve(g, "zielonka", kind=UpdateKind.BASIC)


def test_solve_lifting_with_basic_update_is_an_error():
    g = game([EVEN], [2], [[0]])
    with pytest.raises(ValueError):
        solve(g, "lifting", UpdateVariant.CONCISE, UpdateKind.BASIC)
    # Also where the zero budget would answer without the automaton.
    all_odd = game([EVEN, ODD], [1, 3], [[1], [0]])
    with pytest.raises(ValueError, match="antagonistic"):
        solve(all_odd, "lifting", UpdateVariant.CONCISE, UpdateKind.BASIC)


def test_solve_unknown_algorithm():
    g = game([EVEN], [2], [[0]])
    with pytest.raises(ValueError):
        solve(g, "minimax")


def test_solve_all_odd_game_short_circuits_to_odd():
    g = game([EVEN, ODD], [1, 3], [[1], [0]])
    for algo, counter in (("product", "product_positions"), ("lifting", "lifts")):
        stats: dict = {}
        res = solve(g, algo, UpdateVariant.CLASSIC, UpdateKind.ANTAGONISTIC, stats=stats)
        assert res.odd == {0, 1}, algo
        assert stats == {counter: 0}, algo


def test_winning_sets_winner_lookup():
    ws = WinningSets(even=frozenset({0, 2}), odd=frozenset({1}))
    assert [ws.winner(v) for v in range(3)] == [EVEN, ODD, EVEN]


# ---------------------------------------------------------------------------
# cross-validation harnesses
# ---------------------------------------------------------------------------


def test_check_separation_rows_agree():
    # The eight games of generate_random(6, 4, (1, 3), seed), each solved
    # by product and lifting in every variant and update kind.
    combos = {(algo, variant, kind) for _, algo, variant, kind in DIFF_METHODS}
    assert combos == {("product", v, k) for v in UpdateVariant for k in UpdateKind} | {
        ("lifting", v, UpdateKind.ANTAGONISTIC) for v in UpdateVariant
    }
    rows = differential(range(8), n=6, max_colour=4)
    assert len(rows) == 8
    for row in rows:
        assert row["agree"] is True, row


def test_differential_rows_and_bitstrings():
    rows = differential(range(25), n=7, max_colour=5)
    assert len(rows) == 25
    for row in rows:
        assert row["agree"] is True
        bitmaps = [v for k, v in row.items() if k.endswith("_even")]
        assert all(b == row["zielonka_even"] for b in bitmaps)
        assert all(len(b) == 7 and set(b) <= {"0", "1"} for b in bitmaps)


def test_differential_bitstring_puts_vertex_zero_leftmost():
    rows = differential([3], n=5, max_colour=4)
    g = generate_random(5, 4, (1, 3), 3)
    even = zielonka(g).even
    expected = "".join("1" if v in even else "0" for v in range(5))
    assert rows[0]["zielonka_even"] == expected


def test_differential_csv_shape():
    rows = differential(range(3), n=5, max_colour=4)
    text = rows_csv(rows)
    lines = text.strip().split("\n")
    assert len(lines) == 4
    header = lines[0].split(",")
    assert header[0] == "seed" and "agree" in header
    for line in lines[1:]:
        assert len(line.split(",")) == len(header)
    assert rows_csv([]) == ""
