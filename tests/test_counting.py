from __future__ import annotations

import re

import pytest

from oracles import half_budget_identity
from pgwitness.cli import rows_csv
from pgwitness.counting import (
    FIXED_COLOUR_ROWS,
    LINEAR_COLOUR_ROWS,
    count_bitword_measures,
    count_classic_by_value,
    count_concise_by_length,
    count_concise_by_length_value,
    count_concise_by_value,
    count_evenweight_by_length_value,
    count_monotone_seqs,
    count_odd_once,
    statespace_totals,
    table_fixed_colours,
    table_linear_colours,
    total_bitword_measures,
    total_monotone_seqs,
)


def test_base_cases():
    assert count_monotone_seqs(10, 1) == 11
    assert count_bitword_measures(10, 1) == 11
    assert count_bitword_measures(2, 3) == 15
    assert count_odd_once(2, 2) == 7
    assert count_concise_by_length(10, 1) == 6
    assert count_concise_by_length(2, 2) == 4
    assert count_concise_by_length_value(8, 4, 0) == 1
    assert count_evenweight_by_length_value(9, 1, 0) == 1
    assert count_evenweight_by_length_value(9, 1, 1) == 5
    assert total_bitword_measures(2, 1) == 4


def test_classic_value_count_anchors():
    # Bounds(10, 484), the benchmark's above-cap statespace: the classic
    # space is more than twice the concise one
    assert count_classic_by_value(10, 484) == 624232
    assert count_concise_by_value(10, 484) == 291606
    # without odd colours there is nothing to truncate
    for v in range(1, 40):
        assert count_classic_by_value(2, v) == count_concise_by_value(2, v)
    assert count_classic_by_value(0, 5) == 1


def test_every_empty_even_range_counts_the_all_blank_tuple():
    assert count_odd_once(0, 4) == 1
    assert count_concise_by_length(0, 3) == 1
    assert count_concise_by_length_value(0, 3, 5) == 1
    assert count_concise_by_value(0, 7) == 1


def test_closed_forms_equal_recurrences_plus_one():
    for c in range(1, 9):
        for l in range(1, 9):
            assert total_monotone_seqs(c, l) == count_monotone_seqs(c, l) + 1
    for c in range(2, 13):
        for l in range(0, 11):
            assert total_bitword_measures(c, l) == count_bitword_measures(c, l) + 1


def test_odd_once_matches_bitword_measures():
    for ec in range(2, 13, 2):
        for l in range(1, 9):
            assert count_odd_once(ec, l) == count_bitword_measures(ec, l)


def test_full_value_budget_recovers_the_length_count():
    for ec in range(2, 11, 2):
        for l in range(1, 10):
            full = (1 << l) - 1
            assert count_concise_by_length_value(ec, l, full) == count_concise_by_length(
                ec, l
            )


def test_half_value_budget_identity():
    for ec in range(2, 11, 2):
        for l in range(2, 10):
            direct = count_concise_by_length_value(ec, l, 1 << (l - 1))
            assert direct == half_budget_identity(ec, l)
            assert direct == count_concise_by_length(ec, l) // 2 + ec // 2


def test_half_budget_identity_needs_room_for_a_half():
    with pytest.raises(ValueError):
        half_budget_identity(4, 1)


def test_value_count_is_the_length_value_count_at_implied_length():
    for ec in (2, 6, 10):
        for v in range(1, 200):
            assert count_concise_by_value(ec, v) == count_concise_by_length_value(
                ec, v.bit_length(), v
            )


def test_length_value_count_is_monotone_in_the_budget():
    for ec in (2, 4, 8):
        for l in (3, 5):
            counts = [
                count_concise_by_length_value(ec, l, v) for v in range(1 << l)
            ]
            assert counts == sorted(counts)
            assert counts[0] == 1


def test_evenweight_collapses_to_concise_without_odd_colours():
    for l in range(1, 11):
        for v in range(0, 1 << l, 7):
            assert count_evenweight_by_length_value(
                2, l, v
            ) == count_concise_by_length_value(2, l, v)


def test_evenweight_is_monotone_in_the_colour_bound():
    for c in range(2, 9):
        assert count_evenweight_by_length_value(
            c + 1, 4, 9
        ) >= count_evenweight_by_length_value(c, 4, 9)


def test_statespace_totals_small_anchor():
    assert statespace_totals(8, 8) == (1060, 770, 225)


def test_statespace_totals_large_anchor():
    assert statespace_totals(1024, 10) == (15_157_189, 4_374_528, 1_211_398)


def test_statespace_totals_row_256():
    old, jl, _ = statespace_totals(256, 10)
    assert jl == 553_984
    assert old == 1_462_564


def test_argument_validation():
    for bad in (
        lambda: count_monotone_seqs(0, 1),
        lambda: count_monotone_seqs(3, 0),
        lambda: count_bitword_measures(1, 2),
        lambda: count_bitword_measures(4, -1),
        lambda: count_odd_once(3, 2),
        lambda: count_concise_by_length_value(4, 3, 8),
        lambda: count_concise_by_length_value(4, 3, -1),
        lambda: count_concise_by_value(4, -2),
        lambda: count_evenweight_by_length_value(1, 2, 1),
        lambda: statespace_totals(0, 4),
        lambda: statespace_totals(9, 1),
    ):
        with pytest.raises(ValueError):
            bad()


def test_fixed_colour_table_shape_and_sample_rows():
    rows = table_fixed_colours()
    assert [(r["n"], r["c"]) for r in rows] == list(FIXED_COLOUR_ROWS)
    by_n = {r["n"]: r for r in rows}
    assert (by_n[16]["old_k"], by_n[16]["jl_k"], by_n[16]["new_k"]) == (8, 5, 1)
    assert (by_n[256]["old_k"], by_n[256]["jl_k"], by_n[256]["new_k"]) == (
        1462,
        553,
        154,
    )
    assert (by_n[1024]["old_k"], by_n[1024]["jl_k"], by_n[1024]["new_k"]) == (
        15157,
        4374,
        1211,
    )
    for row in rows:
        assert row["old_exact"] > row["jl_exact"] > row["new_exact"]
        assert re.fullmatch(r"\d+\.\d{4}", row["new_over_jl"])


def test_linear_colour_table_shape_and_sample_rows():
    rows = table_linear_colours()
    assert [(r["n"], r["c"]) for r in rows] == list(LINEAR_COLOUR_ROWS)
    by_n = {r["n"]: r for r in rows}
    assert (by_n[300]["old_k"], by_n[300]["jl_k"], by_n[300]["new_k"]) == (
        987,
        518,
        148,
    )
    assert (by_n[500]["old_k"], by_n[500]["jl_k"], by_n[500]["new_k"]) == (
        36742,
        22817,
        12200,
    )
    assert by_n[500]["jl_exact"] == 22_817_779_712


def test_table_csv_schema():
    text = rows_csv(table_fixed_colours())
    lines = text.strip().split("\n")
    assert lines[0] == (
        "n,c,old_exact,jl_exact,new_exact,old_k,jl_k,new_k,new_over_jl"
    )
    assert len(lines) == 1 + len(FIXED_COLOUR_ROWS)
    assert lines[1].startswith("8,8,1060,770,225,")
