from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import game
from oracles import longest_even_chain, random_play
from pgwitness.errors import GameParseError
from pgwitness.games import (
    EVEN,
    ODD,
    ParityGame,
    _statements,
    generate_random,
    normalize_colours,
    parse_pgsolver,
    serialize_pgsolver,
)

SAMPLE = """parity 3;
0 6 1 4,2 "Africa";
4 5 1 0 "Antarctica";
1 8 1 2,4,3 "America";
3 6 0 4,2 "Australia";
2 7 0 3,1,0,4 "Asia";
"""


def test_parse_sample_file():
    g = parse_pgsolver(SAMPLE)
    assert g.n == 5
    assert g.ids == (0, 4, 1, 3, 2)
    assert g.names[0] == "Africa"
    # external id 4 is internal vertex 1 with a single successor id 0
    assert g.colours[1] == 5
    assert g.succ[1] == (0,)
    # external id 2 -> internal 4; successors 3,1,0,4 -> internal 3,2,0,1
    assert sorted(g.succ[4]) == [0, 1, 2, 3]


def test_parse_without_header_and_names():
    g = parse_pgsolver("0 2 0 1;\n1 1 1 0;")
    assert g.n == 2
    assert g.owners == (EVEN, ODD)
    assert g.names is None or g.names == (None, None)


def test_parse_errors_carry_line_numbers():
    with pytest.raises(GameParseError, match="line 2"):
        parse_pgsolver("0 2 0 1;\n1 1 1;")
    with pytest.raises(GameParseError, match="line 3"):
        parse_pgsolver("parity 1;\n0 2 0 1;\n0 1 1 0;")  # duplicate id
    with pytest.raises(GameParseError, match="successor 7"):
        parse_pgsolver("0 2 0 7;")
    with pytest.raises(GameParseError):
        parse_pgsolver("")
    with pytest.raises(GameParseError, match="owner"):
        parse_pgsolver("0 2 2 0;")


def test_serialize_is_canonical_and_round_trips():
    g = parse_pgsolver(SAMPLE)
    text = serialize_pgsolver(g)
    assert text.startswith("parity 4;\n")
    again = parse_pgsolver(text)
    assert serialize_pgsolver(again) == text
    # same game modulo vertex order: compare by external id
    def by_id(h: ParityGame) -> dict:
        ids = h.ids or tuple(h.vertices())
        return {
            ids[v]: (h.owners[v], h.colours[v], sorted(ids[w] for w in h.succ[v]))
            for v in h.vertices()
        }

    assert by_id(again) == by_id(g)


def test_quoted_name_may_hold_a_semicolon():
    g = parse_pgsolver('0 1 0 0 "a;b";\n1 2 1 0,1 "c";')
    assert g.names == ("a;b", "c")
    text = serialize_pgsolver(g)
    assert '"a;b";' in text
    again = parse_pgsolver(text)
    assert again.names == g.names and again.succ == g.succ
    assert serialize_pgsolver(again) == text


def _split(splitter, text):
    """The statements, or the message and line of the error raised."""
    try:
        return splitter(text)
    except GameParseError as exc:
        return str(exc), exc.line


@pytest.mark.parametrize(
    "text",
    [
        '0 1 0 0 "a;b";\n1 2 1 0,1 "c;";',
        '  0 1 0 0 "a;\nb" ;\n\n\n1 2 1 0 "x";\n',
        "parity 1;\r\n0 2 0 1;\r\n\r\n1 1 1 0;\r\n",
        "parity 1;\n0 2 0 1;\n1 1 1 0",
        '0 1 0 0 "a;b";\n\n  1 2 1 0 "c;',
        ";;\n ; \n0 1 0 0;\n\t\n",
        "",
        SAMPLE,
    ],
)
def test_statement_splitter_equals_the_character_walk(text):
    assert _split(_statements, text) == _split(oracles.statements_by_characters, text)


@given(st.text(alphabet='0 1;"\n\r\t\x0b\x1c\x85\xa0a,', max_size=40))
@settings(max_examples=300, deadline=None)
def test_statement_splitter_equals_the_character_walk_on_any_text(text):
    assert _split(_statements, text) == _split(oracles.statements_by_characters, text)


@given(st.integers(1, 6), st.integers(1, 8), st.integers(0, 10**6))
@settings(max_examples=60, deadline=None)
def test_round_trip_random_games(n, max_colour, seed):
    g = generate_random(n, max_colour, (1, 3), seed)
    assert parse_pgsolver(serialize_pgsolver(g)).succ == g.succ


def test_parity_game_validation():
    with pytest.raises(ValueError):
        game([0], [2], [[]])  # no successor
    with pytest.raises(ValueError):
        game([0], [2], [[1]])  # successor out of range
    with pytest.raises(ValueError):
        game([2], [2], [[0]])  # bad owner
    with pytest.raises(ValueError):
        game([0], [-1], [[0]])  # negative colour


def test_predecessors_mirror_successors():
    g = generate_random(7, 4, (1, 3), seed=11)
    for v in g.vertices():
        for w in g.succ[v]:
            assert v in g.predecessors[w]
    for w in g.vertices():
        for v in g.predecessors[w]:
            assert w in g.succ[v]


def test_predecessors_list_a_repeated_edge_once():
    g = game([0, 1, 1], [1, 2, 1], [[1, 1, 2], [1, 0, 1], [2]])
    assert g.predecessors == ((1,), (0, 1), (0, 2))


def test_normalize_colours_examples():
    g0 = game([0, 1], [0, 4], [[1], [0]])
    h0, mapping0 = normalize_colours(g0)
    assert mapping0 == {0: 2, 4: 4}
    assert h0.colours == (2, 4)

    g1 = game([0, 1], [3, 8], [[1], [0]])
    h1, mapping1 = normalize_colours(g1)
    assert mapping1 == {3: 1, 8: 2}

    g2 = game([0, 1, 0], [1, 2, 3], [[1], [2], [0]])
    h2, mapping2 = normalize_colours(g2)
    assert h2.colours == g2.colours
    assert mapping2 == {1: 1, 2: 2, 3: 3}


def test_normalize_colours_returns_an_already_normalised_game_itself():
    """An already-normalised game comes back as the same object, with its
    cached predecessors; any other comes back as a new game with the
    mapped colours and everything else kept."""
    g = game([0, 1, 0], [1, 2, 3], [[1], [2], [0, 0]])
    preds = g.predecessors
    h, mapping = normalize_colours(g)
    assert h is g and h.predecessors is preds
    assert mapping == {1: 1, 2: 2, 3: 3}
    cases = (((1, 2, 5), (1, 2, 3)), ((4, 5, 6), (2, 3, 4)), ((0, 3, 8), (2, 3, 4)))
    for colours, expected in cases:
        named = ParityGame(g.owners, colours, g.succ, ids=(7, 8, 9), names=("a", None, "c"))
        h, _ = normalize_colours(named)
        assert h is not named
        assert h == ParityGame(g.owners, expected, g.succ, ids=(7, 8, 9), names=("a", None, "c"))
        assert normalize_colours(h)[0] is h


@given(st.lists(st.integers(0, 9), min_size=1, max_size=6), st.integers(0, 999))
@settings(max_examples=80, deadline=None)
def test_normalize_preserves_parity_and_order(colour_pool, seed):
    n = len(colour_pool)
    g = ParityGame(
        owners=tuple(i % 2 for i in range(n)),
        colours=tuple(colour_pool),
        succ=tuple(((i + 1) % n,) for i in range(n)),
    )
    h, mapping = normalize_colours(g)
    for old, new in mapping.items():
        assert old % 2 == new % 2
    olds = sorted(mapping)
    news = [mapping[o] for o in olds]
    assert news == sorted(news)
    assert news[0] in (1, 2)
    # consecutive: gaps never exceed what a parity correction needs
    assert all(b - a in (1, 2) for a, b in zip(news, news[1:]))
    assert h.colours == tuple(mapping[c] for c in g.colours)


def test_generate_random_is_deterministic_and_in_bounds():
    a = generate_random(9, 5, (2, 3), seed=4)
    b = generate_random(9, 5, (2, 3), seed=4)
    assert a == b
    assert all(1 <= c <= 5 for c in a.colours)
    assert all(2 <= len(s) <= 3 for s in a.succ)
    assert all(len(set(s)) == len(s) for s in a.succ)
    assert generate_random(9, 5, (2, 3), seed=5) != a


def test_generate_random_rejects_a_degree_above_n():
    with pytest.raises(ValueError, match="out-degree at least 3 .* n=2"):
        generate_random(2, 2, (3, 5), seed=0)
    # A degree range reaching past n is cut at n, as before.
    g = generate_random(2, 2, (2, 5), seed=0)
    assert g.succ == ((0, 1), (0, 1))


def test_random_play_follows_edges():
    g = generate_random(6, 4, (1, 3), seed=0)
    play = random_play(g, 20, seed=3)
    assert len(play) == 20
    for v, w in zip(play, play[1:]):
        assert w in g.succ[v]


def test_longest_even_chain_examples():
    assert longest_even_chain([2, 1, 2]) == 2
    assert longest_even_chain([2, 3, 2]) == 1
    assert longest_even_chain([]) == 0
    assert longest_even_chain([1, 3, 5]) == 0
    assert longest_even_chain([2, 2, 2, 2]) == 4
    # the high even colour 4 dominates the 3 between the first two picks
    assert longest_even_chain([4, 3, 2, 2]) == 3


@given(st.lists(st.integers(1, 6), max_size=9))
@settings(max_examples=150, deadline=None)
def test_longest_even_chain_matches_subset_oracle(colours):
    assert longest_even_chain(colours) == oracles.longest_even_chain_by_subsets(
        colours
    )
