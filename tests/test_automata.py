from __future__ import annotations

import pytest

from conftest import game
from oracles import play_word
from pgwitness.automata import SepAutomaton, UpdateKind, bounds_for_game
from pgwitness.updates import UpdateVariant
from pgwitness.witnesses import BLANK, WON, Bounds

B = BLANK


def test_run_keeps_the_full_state_sequence():
    b = Bounds(max_colour=2, e=3)
    aut = SepAutomaton(bounds=b, variant=UpdateVariant.COLOUR)
    states = aut.run([2, 2, 2, 2])
    assert states == [(B, B), (B, 2), (2, B), (2, 2), WON]
    assert aut.accepts([2, 2, 2, 2])
    assert not aut.accepts([2, 2, 2])
    # A colour-1 letter between 2s is dominated by its flanks, so the
    # even chain keeps growing; two extra letters are not needed.
    assert aut.accepts([2, 2, 1, 2, 2])
    # But the dominated letters do not count: only three 2s here.
    assert not aut.accepts([2, 2, 1, 1, 2])


def test_initial_state_is_all_blank():
    b = Bounds(max_colour=5, e=9)
    aut = SepAutomaton(bounds=b, variant=UpdateVariant.CLASSIC)
    assert aut.initial == (B, B, B, B)


def test_antagonistic_kind_steps_with_au():
    b = Bounds(max_colour=2, e=1)
    basic = SepAutomaton(bounds=b, variant=UpdateVariant.CLASSIC)
    anta = SepAutomaton(
        bounds=b, variant=UpdateVariant.CLASSIC, kind=UpdateKind.ANTAGONISTIC
    )
    assert basic.step((B,), 1) == (B,)
    assert anta.step((B,), 1) == (B,)
    assert anta.step((B,), 2) == (2,)
    assert anta.step((2,), 2) is WON


def test_step_rejects_out_of_range_colours():
    b = Bounds(max_colour=3, e=2)
    aut = SepAutomaton(bounds=b, variant=UpdateVariant.CONCISE)
    with pytest.raises(ValueError):
        aut.step(aut.initial, 4)


def test_step_rejects_a_state_of_another_length():
    # Within the table cap (4 entries) and above it (9 entries).
    for b in (Bounds(max_colour=6, e=12), Bounds(max_colour=10, e=484)):
        for variant in UpdateVariant:
            for kind in UpdateKind:
                aut = SepAutomaton(bounds=b, variant=variant, kind=kind)
                for w in [(B,) * (b.length - 1), (B,) * (b.length + 1)]:
                    with pytest.raises(ValueError, match="entries, not the"):
                        aut.step(w, 2)


def test_bounds_for_game_defaults_to_even_vertex_count():
    g = game([0, 1, 0], [2, 1, 4], [[1], [2], [0]])
    b = bounds_for_game(g)
    assert b == Bounds(max_colour=4, e=2, min_colour=1)


def test_bounds_for_game_explicit_budget_and_min_colour():
    g = game([0, 1], [2, 4], [[1], [0]])
    b = bounds_for_game(g, e=7)
    assert (b.e, b.min_colour, b.max_colour) == (7, 2, 4)


def test_bounds_for_game_rejects_budgets_below_the_even_vertex_count():
    g = game([0, 1, 0], [2, 1, 4], [[1], [2], [0]])
    with pytest.raises(ValueError, match="unsound"):
        bounds_for_game(g, e=1)
    assert bounds_for_game(g, e=2).e == 2


def test_bounds_for_game_all_odd_is_none():
    g = game([0, 1], [1, 3], [[1], [0]])
    assert bounds_for_game(g) is None


def test_bounds_for_game_requires_normalized_colours():
    g = game([0], [0], [[0]])
    with pytest.raises(ValueError):
        bounds_for_game(g)


def test_play_word_reads_source_colours():
    g = game([0, 1], [2, 5], [[1], [0]])
    assert play_word(g, [0, 1, 0, 1]) == [2, 5, 2, 5]
