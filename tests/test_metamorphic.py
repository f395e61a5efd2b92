"""Metamorphic relations: the answers on two related games are checked
against each other, so no bug shared with an oracle can hide.

* Duplicating one successor of every vertex changes no move: winners,
  product positions and lift counts stay the same.
* Relabelling the vertices and shuffling every successor list gives the
  relabelled winners and the same product positions.  Lift counts are
  left out: the lifting queue follows vertex ids.
* The dual game swaps the owners and adds 1 to every colour, so each
  player wins a play of it exactly when the other wins the same play of
  the original: Even's region in the dual is Odd's in the original.
"""

from __future__ import annotations

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from pgwitness.games import EVEN, ODD, ParityGame, generate_random
from pgwitness.solvers import DIFF_METHODS, solve

# Zielonka and the nine witness configurations.
CONFIGS = [("zielonka", None, None)] + [
    (algo, variant, kind) for _, algo, variant, kind in DIFF_METHODS
]

games = st.builds(
    generate_random,
    st.integers(1, 12),
    st.integers(1, 8),
    st.just((1, 4)),
    st.integers(0, 10**6),
)
larger_games = st.builds(
    generate_random,
    st.integers(3, 20),
    st.integers(1, 8),
    st.just((1, 4)),
    st.integers(0, 10**6),
)


def _solve_all(g: ParityGame) -> dict:
    """Per configuration: Even's region, lift count and product positions."""
    out = {}
    for algo, variant, kind in CONFIGS:
        stats: dict = {}
        res = solve(g, algo, variant, kind, stats=stats)
        assert res.odd == frozenset(g.vertices()) - res.even
        out[algo, variant, kind] = (res.even, stats.get("lifts"), stats.get("product_positions"))
    return out


@given(games, st.integers(0, 10**6))
@settings(max_examples=100, deadline=None)
def test_a_duplicated_successor_changes_no_answer_and_no_count(g, seed):
    rng = random.Random(seed)
    succ = []
    for ws in g.succ:
        ws = list(ws)
        ws.insert(rng.randrange(len(ws) + 1), rng.choice(ws))
        succ.append(tuple(ws))
    doubled = ParityGame(owners=g.owners, colours=g.colours, succ=tuple(succ))
    assert _solve_all(doubled) == _solve_all(g)


@given(games, st.integers(0, 10**6))
@settings(max_examples=100, deadline=None)
def test_relabelling_relabels_the_winners_and_keeps_the_positions(g, seed):
    rng = random.Random(seed)
    label = list(g.vertices())
    rng.shuffle(label)
    owners, colours, succ = [0] * g.n, [0] * g.n, [()] * g.n
    for v in g.vertices():
        ws = [label[w] for w in g.succ[v]]
        rng.shuffle(ws)
        owners[label[v]], colours[label[v]], succ[label[v]] = g.owners[v], g.colours[v], tuple(ws)
    relabelled = ParityGame(owners=tuple(owners), colours=tuple(colours), succ=tuple(succ))
    expected = {
        config: (frozenset(label[v] for v in even), positions)
        for config, (even, _, positions) in _solve_all(g).items()
    }
    got = {
        config: (even, positions)
        for config, (even, _, positions) in _solve_all(relabelled).items()
    }
    assert got == expected


@given(larger_games)
@settings(max_examples=100, deadline=None)
def test_the_dual_game_gives_even_the_region_odd_wins_in_the_original(g):
    dual = ParityGame(
        owners=tuple(ODD if o == EVEN else EVEN for o in g.owners),
        colours=tuple(c + 1 for c in g.colours),
        succ=g.succ,
    )
    for algo, variant, kind in CONFIGS:
        got = solve(dual, algo, variant, kind).even
        assert got == solve(g, algo, variant, kind).odd, (algo, variant, kind)
