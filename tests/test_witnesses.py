from __future__ import annotations

import gc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from oracles import (
    entry_at,
    even_positions,
    is_classic_witness,
    is_colour_witness,
    is_valid_state,
    truncate_odd_repeats,
    witness_cmp,
)
from pgwitness import witnesses
from pgwitness.counting import count_monotone_seqs
from pgwitness.errors import ResourceCapError
from pgwitness.records import Record
from pgwitness.witnesses import (
    BLANK,
    WON,
    Bounds,
    StatespaceVariant,
    entry_key,
    enumerate_statespace,
    state_key,
    state_str,
    witness_value,
)

B = BLANK


def test_bounds_derived_quantities():
    b = Bounds(max_colour=6, e=12)
    assert (b.k, b.length) == (3, 4)
    assert b.colours == (1, 2, 3, 4, 5, 6)
    assert b.reduced_colours == (1, 2, 3, 4, 5, 6)  # max colour even: keep all
    b5 = Bounds(max_colour=5, e=1)
    assert (b5.k, b5.length) == (0, 1)
    assert b5.reduced_colours == (1, 2, 3, 4)  # top odd colour dropped
    assert Bounds(max_colour=2, e=31).length == 5
    assert Bounds(max_colour=2, e=32).length == 6


def test_bounds_validation():
    with pytest.raises(ValueError):
        Bounds(max_colour=4, e=0)
    with pytest.raises(ValueError):
        Bounds(max_colour=1, e=3, min_colour=2)
    with pytest.raises(ValueError):
        Bounds(max_colour=4, e=3, min_colour=3)


def test_a_record_with_a_default_before_a_required_field_is_refused():
    # A generated __init__ cannot put a required parameter after a default.
    with pytest.raises(TypeError, match="^Late: fields with defaults must come last$"):

        class Late(Record):
            min_colour: int = 1
            e: int


def test_entry_order_blank_then_odds_desc_then_evens_asc():
    ordered = [B, 7, 5, 3, 1, 2, 4, 6]
    keys = [entry_key(x) for x in ordered]
    assert keys == sorted(keys)
    assert len(set(keys)) == len(keys)


def test_witness_order_examples():
    chain = [
        (B, B),
        (B, 2),
        (3, B),
        (3, 2),
        (1, B),
        (2, B),
        (2, 2),
        (4, B),
        (4, 2),
        (4, 4),
    ]
    for a, b in zip(chain, chain[1:]):
        assert witness_cmp(a, b) < 0
        assert witness_cmp(b, a) > 0
    assert witness_cmp((3, 2), (3, 2)) == 0
    for w in chain:
        assert witness_cmp(w, WON) < 0
    assert witness_cmp(WON, WON) == 0
    with pytest.raises(ValueError):
        witness_cmp((B, B), (B, B, B))


def test_state_key_sorts_won_on_top():
    states = [(2, 2), WON, (B, B), (4, B)]
    assert sorted(states, key=state_key) == [(B, B), (2, 2), (4, B), WON]


def test_witness_value_examples():
    assert witness_value((4, B, 4, B)) == 0b1010 == 10
    assert witness_value((4, 3, 2, 2)) == 0b1100 == 12
    assert witness_value((B, B, B)) == 0
    assert witness_value((B, 3)) == 1  # a lone odd entry still weighs
    assert witness_value((3, 2)) == 2  # everything below the odd is dead
    assert witness_value((2, 2)) == 3


def test_entry_positions_are_counted_from_the_right():
    w = (5, 3, B)
    assert entry_at(w, 0) == B
    assert entry_at(w, 1) == 3
    assert entry_at(w, 2) == 5
    assert even_positions((4, 3, 2, 2)) == frozenset({0, 1, 3})


def test_truncation_examples():
    assert truncate_odd_repeats((B, 7, B, 7, 5, 4, B, 3, 3, B, 2)) == (
        B, 7, B, B, 5, 4, B, 3, B, B, 2,
    )
    assert truncate_odd_repeats((3, 3, 2)) == (3, B, 2)
    assert truncate_odd_repeats((4, 2, 2)) == (4, 2, 2)  # evens untouched
    assert truncate_odd_repeats(WON) is WON


def test_truncation_preserves_value_and_evens_and_is_idempotent():
    b = Bounds(max_colour=6, e=14)
    for w in enumerate_statespace(b, StatespaceVariant.CLASSIC_VALUE_CAPPED):
        t = truncate_odd_repeats(w)
        assert witness_value(t) == witness_value(w)
        assert even_positions(t) == even_positions(w)
        assert truncate_odd_repeats(t) == t


def test_state_str():
    assert state_str((B, 2)) == "_,2"
    assert state_str((5, 4, B)) == "5,4,_"
    assert state_str(WON) == "Won"
    assert repr(WON) == "Won"


def test_statespace_17_for_two_colours_budget_one():
    b = Bounds(max_colour=2, e=1)
    space = enumerate_statespace(b, StatespaceVariant.CONCISE)
    assert space == ((B,), (2,))


@pytest.mark.parametrize("max_colour", [2, 3, 4, 5, 6])
@pytest.mark.parametrize("e", [1, 3, 7, 12])
@pytest.mark.parametrize("variant", list(StatespaceVariant))
def test_enumeration_matches_filter_oracle(max_colour, e, variant):
    b = Bounds(max_colour=max_colour, e=e)
    space = enumerate_statespace(b, variant)
    assert set(space) == oracles.filter_enumerate(b, variant)
    keys = [state_key(w) for w in space]
    assert keys == sorted(keys)
    assert len(set(keys)) == len(keys)
    assert all(is_valid_state(w, b, variant) for w in space)


def test_enumeration_cap_is_enforced():
    b = Bounds(max_colour=6, e=31)
    size = count_monotone_seqs(6, 5)
    misses = witnesses._statespace.cache_info().misses
    with pytest.raises(ResourceCapError, match=f"{size} states.*cap of 10"):
        enumerate_statespace(b, StatespaceVariant.ORIGINAL_LENGTH, cap=10)
    assert witnesses._statespace.cache_info().misses == misses
    assert len(enumerate_statespace(b, StatespaceVariant.ORIGINAL_LENGTH, cap=size)) == size


def test_enumeration_leaves_no_reference_cycle():
    # Neither walk leaves one.  A cycle would keep an evicted statespace
    # alive until the next full collection, which the product solver
    # defers.
    gc.collect()
    for variant in StatespaceVariant:
        witnesses._statespace.__wrapped__(Bounds(max_colour=6, e=20), variant)
        witnesses._block_tree.__wrapped__(Bounds(max_colour=6, e=20), variant)
    assert gc.collect() == 0


def test_is_valid_state_rejects_structural_violations():
    b = Bounds(max_colour=6, e=12)
    cv = StatespaceVariant.CLASSIC_VALUE_CAPPED
    assert is_valid_state((4, 3, 2, 2), b, cv)
    assert not is_valid_state((2, 4, B, B), b, cv)  # not monotone
    assert not is_valid_state((B, B, B, 3), b, cv)  # odd final entry
    assert not is_valid_state((B, B, B, 1), b, cv)  # colour 1 unusable
    assert not is_valid_state((6, 6, 6, 6), b, cv)  # value 15 > 12
    assert not is_valid_state((4, 3, 2), b, cv)  # wrong length
    assert not is_valid_state((3, 3, 2, 2), b, StatespaceVariant.CONCISE)
    assert is_valid_state((3, 3, 2, 2), b, cv)
    # WON is the absorbing top, not a member of any enumerated space
    assert not is_valid_state(WON, b, cv)


# --- semantic checkers ----------------------------------------------------


def test_classic_witness_accepts_hand_built_families():
    assert is_classic_witness((B, 2), [2])
    assert is_classic_witness((2, 2), [2, 1, 2, 2])
    assert not is_classic_witness((2, 2), [2, 1, 2])  # no room for b_0
    assert is_classic_witness((3, 2), [2, 2, 3, 2])
    assert is_classic_witness((B, B), [1, 1, 1])
    assert not is_classic_witness((B, 4), [2])  # no position of colour 4


def test_classic_witness_enforces_outer_domination():
    # the 1-witness for the leading 2 would end at position 1, but the
    # later 4 exceeds it, so (2, 2) is not witnessed
    assert not is_classic_witness((2, 2), [2, 2, 4])
    # raising the entry to 4 repairs it
    assert is_classic_witness((B, 4), [2, 2, 4])


def test_classic_witness_odd_final_entry_is_invalid():
    assert not is_classic_witness((2, 3), [2, 3])
    with pytest.raises(ValueError):
        is_classic_witness(WON, [2])


def test_classic_witness_respects_play_length_cap():
    with pytest.raises(ResourceCapError):
        is_classic_witness((B, 2), [2] * 40)
    assert is_classic_witness((B, 2), [2] * 40, max_len=64)


def test_colour_witness_shares_one_chain_per_colour():
    # both entries of colour 2 pool into one chain of length >= 3
    assert is_colour_witness((2, 2), [2, 2, 2])
    assert not is_colour_witness((2, 2), [2, 2])
    assert is_colour_witness((B, 2), [2])
    assert is_colour_witness((4, B, 4, B), [4] * 10)
    assert not is_colour_witness((4, B, 4, B), [4] * 9)


def test_colour_witness_odd_budgets():
    # the odd entry 3 at position 1 claims two even positions and then a 3;
    # the final entry 2 claims one more even position after that
    assert is_colour_witness((3, 2), [2, 2, 2, 3, 2])
    assert not is_colour_witness((3, 2), [2, 2, 2, 3])  # nothing after the 3
    assert not is_colour_witness((3, 2), [2, 3, 2])  # only one even before it
    assert not is_colour_witness((3, 2), [2, 3])
    assert is_colour_witness((3, B), [2, 2, 3])


# --- randomized agreement against the product-filter oracle ----------------


@given(st.integers(2, 5), st.integers(1, 12))
@settings(max_examples=40, deadline=None)
def test_enumeration_agrees_with_oracle_on_random_bounds(max_colour, e):
    b = Bounds(max_colour=max_colour, e=e)
    for variant in StatespaceVariant:
        assert set(enumerate_statespace(b, variant)) == oracles.filter_enumerate(
            b, variant
        )
