from __future__ import annotations

import itertools

import pytest

import oracles
from oracles import (
    antagonistic_reference,
    basic_columns,
    block_ends_by_neighbours,
    raw_classic_reference,
    raw_colour_reference,
    raw_concise_reference,
    suffix_minimum_columns,
    table_update,
    truncate_odd_repeats,
    update_space,
)
from pgwitness import updates, witnesses
from pgwitness.automata import SepAutomaton, UpdateKind, _shared_memo, bounds_for_game, step_memo
from pgwitness.counting import (
    count_classic_by_value,
    count_concise_by_value,
    count_monotone_seqs,
)
from pgwitness.games import generate_random, normalize_colours
from pgwitness.solvers import solve
from pgwitness.updates import (
    ANTAGONISTIC_TABLE_CAP,
    UpdateVariant,
    _antagonistic_table,
    _column,
    _kernel,
    _kernels,
    antagonistic_update,
    antagonistic_update_fast,
    capped_update,
    rank_table,
    rule_set,
    space_size,
    space_variant_for,
)
from pgwitness.witnesses import (
    BLANK,
    WON,
    Bounds,
    StatespaceVariant,
    _block_tree,
    enumerate_statespace,
    state_key,
    statespace_size,
    witness_value,
)

B = BLANK
CLASSIC = UpdateVariant.CLASSIC
CONCISE = UpdateVariant.CONCISE
COLOUR = UpdateVariant.COLOUR

B6 = Bounds(max_colour=6, e=12)
B8 = Bounds(max_colour=8, e=30)

# The bounds of acceptance criterion 4, and those of the benchmark's games.
SWEEP = [
    Bounds(max_colour=max_c, e=e, min_colour=min_c)
    for min_c in (1, 2)
    for max_c in range(min_c, 7)
    for e in range(1, 32)
]
BENCHMARK_BOUNDS = [Bounds(8, 77), Bounds(8, 24), Bounds(12, 28), Bounds(14, 24), Bounds(16, 16)]


def kernel_state(w, d, b, variant):
    """The package kernel's state.  Kernels are built for the length of
    their Bounds' states, and the raw rules read nothing else of the
    budget, so the kernel is taken from Bounds whose budget gives ``w``'s
    length."""
    return _kernels(Bounds(b.max_colour, 1 << (len(w) - 1), b.min_colour), variant)[d](w)


def raw_update_with_rule(w, d, b, variant):
    """The state and rule name of the reference rules; the package
    kernel must give the same state."""
    state, rule = oracles.raw_update_with_rule(w, d, b, variant)
    assert kernel_state(w, d, b, variant) == state, (b, w, d, variant)
    return state, rule


def raw_update(w, d, b, variant):
    state = oracles.raw_update(w, d, b, variant)
    assert kernel_state(w, d, b, variant) == state, (b, w, d, variant)
    return state


def test_classic_local_raise():
    assert raw_update((5, 3, B), 4, B6, CLASSIC) == (5, 4, B)


def test_classic_overflow_across_blank():
    assert raw_update((6, B, 2), 4, B6, CLASSIC) == (6, 4, B)


def test_classic_overflow_at_odd_entry():
    assert raw_update((5, 4, 2), 4, B6, CLASSIC) == (4, B, B)


def test_classic_odd_local():
    assert raw_update((3, 2, 2), 3, B6, CLASSIC) == (3, 3, B)


def test_classic_stale_when_all_entries_dominate():
    w = (6, 4, B)
    state, rule = raw_update_with_rule(w, 3, B6, CLASSIC)
    assert state == w
    assert rule == "stale"


def test_classic_local_at_position_zero_blanks_the_entry():
    # an odd colour cannot sit at the rightmost position, so the local
    # rule writes Blank there instead
    assert raw_update((4, 2), 3, Bounds(max_colour=4, e=3), CLASSIC) == (4, B)


def test_classic_carry_out():
    b = Bounds(max_colour=4, e=3)
    assert raw_update((4, 2), 4, b, CLASSIC) is WON
    assert capped_update((4, 2), 4, b, CLASSIC) is WON


def test_reset_on_highest_odd_colour():
    b = Bounds(max_colour=3, e=3)
    for variant in UpdateVariant:
        assert raw_update((2, 2), 3, b, variant) == (B, B)
    # an even maximum colour leaves no reset colour
    state, rule = raw_update_with_rule((2, 2), 3, Bounds(max_colour=4, e=3), CLASSIC)
    assert rule != "reset"


def test_big_local_jumps():
    assert raw_update((4, 3, 2, 2), 6, B6, CLASSIC) == (6, B, B, B)
    assert raw_update((4, B, 4, B), 6, B6, CLASSIC) == (6, B, B, B)
    assert raw_update((6, B, 4, 2, 2), 8, B8, CLASSIC) == (8, B, B, B, B)


def test_colour_rules_on_the_running_word():
    b = Bounds(max_colour=2, e=3)
    states = [(B, B)]
    for _ in range(4):
        states.append(capped_update(states[-1], 2, b, COLOUR))
    assert states == [(B, B), (B, 2), (2, B), (2, 2), WON]


def test_colour_odd_local_is_non_strict():
    # colour rules rewrite the greatest position holding an entry <= d,
    # so reading 3 onto an existing 3 leaves the state unchanged in effect
    state, rule = raw_update_with_rule((5, 3, B), 3, B6, COLOUR)
    assert (state, rule) == ((5, 3, B), "odd-local")
    # classic rules are strict there: entry 3 < 3 fails, nothing below
    state, rule = raw_update_with_rule((5, 3, B), 3, B6, CLASSIC)
    assert (state, rule) == ((5, 3, B), "stale")


def test_colour_even_release():
    # an odd entry below d is released: entries under d rise to d and the
    # run restarts with d at the rightmost position; entries at or above
    # d are kept as they are
    assert raw_update((3, B), 4, Bounds(max_colour=4, e=3), COLOUR) == (4, 4)
    assert raw_update((5, 3, B), 4, B6, COLOUR) == (5, 4, 4)
    assert raw_update_with_rule((5, 3, B), 4, B6, COLOUR)[1] == "even-release"


def test_colour_even_absorb():
    # no released odd below 4: the least blank-or-odd position takes d
    state, rule = raw_update_with_rule((5, 4, 2), 4, B6, COLOUR)
    assert (state, rule) == ((4, B, B), "even-absorb")
    assert raw_update((B, 2), 2, Bounds(max_colour=2, e=3), COLOUR) == (2, B)


def test_classic_carry_out_fires_on_all_even_entries():
    b = Bounds(max_colour=4, e=3)
    # value 3 = e, and one more even colour pushes the chain past it —
    # with no blank or odd entry left there is nowhere to put the carry
    state, rule = raw_update_with_rule((4, 2), 2, b, CLASSIC)
    assert state is WON and rule == "carry-out"


def test_capped_update_collapses_past_the_budget():
    b = Bounds(max_colour=4, e=3)
    assert witness_value((4, 4)) == 3
    assert capped_update((4, 4), 4, b, CLASSIC) is WON  # carry-out
    bb = Bounds(max_colour=4, e=2)
    # raw result (4, 4) has value 3 > 2: the cap collapses it
    assert raw_update((4, B), 4, bb, CLASSIC) == (4, 4)
    assert capped_update((4, B), 4, bb, CLASSIC) is WON


def test_capped_update_validates_colour_and_absorbs_won():
    with pytest.raises(ValueError):
        capped_update((B, B), 9, B6, CLASSIC)
    with pytest.raises(ValueError):
        capped_update((B, B), 0, B6, CLASSIC)
    assert capped_update(WON, 3, B6, CLASSIC) is WON


def test_capped_update_rejects_a_state_of_another_length():
    for w in [(B, B), (4, B, B, B, B)]:
        with pytest.raises(ValueError, match="entries"):
            capped_update(w, 3, B6, CLASSIC)


def test_antagonistic_updates_reject_unranked_states_within_the_table_cap():
    # B6 states have 4 entries, and every rule set's table is built.
    for variant in UpdateVariant:
        assert rank_table(B6, variant) is not None
        for w in [(B,) * 3, (B,) * 5]:
            for update in (antagonistic_update, antagonistic_update_fast):
                with pytest.raises(ValueError, match=f"has {len(w)} entries, not the 4 of"):
                    update(w, 2, B6, variant)
        # Four entries, but value 14 > 12, or 2 before 4 against the order.
        for w in [(6, 6, 6, B), (2, 4, B, B)]:
            with pytest.raises(ValueError, match=f"not in the {variant.value} statespace"):
                antagonistic_update(w, 2, B6, variant)


def test_antagonistic_updates_reject_a_state_of_another_length_above_the_table_cap():
    b = Bounds(max_colour=10, e=484)  # 9 entries
    misses = witnesses._statespace.cache_info().misses
    for variant in UpdateVariant:
        assert rank_table(b, variant) is None
        for w in [(B,) * 8, (B,) * 10]:
            for update in (antagonistic_update, antagonistic_update_fast):
                with pytest.raises(ValueError, match=f"has {len(w)} entries, not the 9 of"):
                    update(w, 4, b, variant)
    assert witnesses._statespace.cache_info().misses == misses


def test_the_statespace_check_accepts_exactly_the_enumerated_states():
    # Every tuple over Blank, the colours and one colour above them.  The
    # check walks the rules the package enumerates by, so the states are
    # enumerated by the filtering oracle, which shares no code with them.
    for b in [
        Bounds(max_colour=c, e=e, min_colour=m)
        for m in (1, 2)
        for c in range(m, 7)
        for e in (1, 2, 3, 5, 6, 8, 11, 15)
    ]:
        for variant in UpdateVariant:
            space = oracles.filter_enumerate(b, space_variant_for(variant))
            for w in itertools.product(range(b.max_colour + 2), repeat=b.length):
                try:
                    updates._check_state(w, b, variant)
                    ok = True
                except ValueError as exc:
                    assert f"not in the {variant.value} statespace" in str(exc)
                    ok = False
                assert ok == (w in space), (b, variant, w)


def test_every_update_path_rejects_a_state_outside_the_statespace():
    # Four entries, but 2 before 4 against the order, or value 14 > 12;
    # and, with 9 entries at Bounds(10, 484), 2 before 4 again, or value
    # 496 > 484.
    big = Bounds(max_colour=10, e=484)
    cases = [
        (B6, (2, 4, B, B)),
        (B6, (6, 6, 6, B)),
        (big, (2, 4) + (B,) * 7),
        (big, (10,) * 5 + (B,) * 4),
    ]
    for variant in UpdateVariant:
        for b, w in cases:
            for update in (capped_update, antagonistic_update, antagonistic_update_fast):
                with pytest.raises(ValueError, match=f"not in the {variant.value} statespace"):
                    update(w, 2, b, variant)
            for kind in UpdateKind:
                with pytest.raises(ValueError, match="statespace"):
                    SepAutomaton(b, variant, kind).step(w, 2)
        # A concise state repeats no odd colour; a classic one may.
        w = (5, 5, B, B)
        assert capped_update(w, 2, B6, CLASSIC) == (5, 5, B, 2)
        if variant is not CLASSIC:
            with pytest.raises(ValueError, match="statespace"):
                capped_update(w, 2, B6, variant)


# The Bounds over which the constructive routine's candidates are pinned
# to the block tree.
CHAIN_SWEEP = [
    Bounds(max_colour=max_c, e=e, min_colour=min_c)
    for min_c in (1, 2)
    for max_c in range(min_c, 8)
    for e in (1, 2, 3, 5, 8, 13, 21, 31)
]


def block_end_chain(ends, size, r):
    """The ranks ``r+1, ends[r+1], ends[ends[r+1]], ...`` below ``size``:
    the first states of the blocks after the state of rank ``r``."""
    chain, c = [], r + 1
    while c < size:
        chain.append(c)
        c = ends[c]
    return chain


def test_the_walk_offers_the_first_states_of_the_blocks_after_each_state():
    # The states s[:i] + (x,) + Blanks for the entries x offered at index
    # i, from the last index up, are the block-end chain in rank order.
    for b in CHAIN_SWEEP:
        for space in (StatespaceVariant.CLASSIC_VALUE_CAPPED, StatespaceVariant.CONCISE):
            size, ends, *_ = _block_tree(b, space)
            states = witnesses._statespace(b, space)
            rank = {w: r for r, w in enumerate(states)}
            for r, s in enumerate(states):
                order, cuts = witnesses._offers(s, b, space)
                assert len(cuts) == len(s), (b, space, s)
                offered = [
                    rank.get(s[:i] + (x,) + (B,) * (len(s) - 1 - i))
                    for i in reversed(range(len(s)))
                    for x in order[slice(*cuts[i])]
                ]
                assert offered == block_end_chain(ends, size, r), (b, space, s)


def test_the_constructive_update_evaluates_the_state_and_the_block_end_chain(monkeypatch):
    # Besides s itself, antagonistic_update evaluates exactly the first
    # states of the blocks after s, on every state and colour but a
    # resetting greatest odd one, which evaluates nothing.
    evaluated = []
    capped = updates._capped

    def recording(kernel, w, e):
        evaluated.append(w)
        return capped(kernel, w, e)

    monkeypatch.setattr(updates, "_capped", recording)
    pairs = 0
    for b in CHAIN_SWEEP:
        for variant in UpdateVariant:
            size, ends, *_ = _block_tree(b, space_variant_for(variant))
            states = update_space(b, variant)
            rank = {w: r for r, w in enumerate(states)}
            for d in b.colours:
                if d & 1 and d == b.max_colour:
                    continue
                for r, s in enumerate(states):
                    evaluated.clear()
                    antagonistic_update(s, d, b, variant)
                    assert evaluated[0] is s, (b, variant, d, s)
                    got = sorted(rank.get(w, size) for w in evaluated[1:])
                    assert got == block_end_chain(ends, size, r), (b, variant, d, s)
                    pairs += 1
    assert pairs == 114_080


def test_single_steps_and_enumerations_at_hundreds_of_colours():
    # The walk's rules keep one run of the entry order per last entry,
    # four ints each, so a first step at hundreds of colours builds about
    # as many ints as there are colours.
    b = Bounds(max_colour=201, e=3)
    for variant in UpdateVariant:
        space = space_variant_for(variant)
        top, order, m, spans, weights, e = witnesses._rules(b, space)
        assert len(spans) <= len(b.colours) + 1
        assert {len(span) for span in spans.values()} == {4}
        states = enumerate_statespace(b, space)
        assert len(states) == statespace_size(b, space)
        assert all(oracles.is_valid_state(w, b, space) for w in states)
        for s in (states[1], (200, B), (199, 198)):
            r = states.index(s)
            for d in (2, 7, 200):
                kernel = _kernels(b, variant)[d]
                want = min((updates._capped(kernel, t, b.e) for t in states[r:]), key=state_key)
                assert antagonistic_update(s, d, b, variant) == want, (variant, s, d)
                assert capped_update(s, d, b, variant) == updates._capped(kernel, s, b.e)
    # One entry per state, and the Blank state.
    b = Bounds(max_colour=600, e=1)
    for space in StatespaceVariant:
        states = enumerate_statespace(b, space)
        assert states == tuple(sorted(oracles.filter_enumerate(b, space), key=state_key))


def test_concise_update_is_truncated_classic():
    b = Bounds(max_colour=6, e=14)
    space = enumerate_statespace(b, StatespaceVariant.CLASSIC_VALUE_CAPPED)
    for w in space:
        t = truncate_odd_repeats(w)
        for d in b.colours:
            lhs = capped_update(t, d, b, CONCISE)
            rhs = capped_update(w, d, b, CLASSIC)
            if rhs is not WON:
                rhs = truncate_odd_repeats(rhs)
            # truncating first can only move the outcome up, never down
            assert state_key(lhs) >= state_key(rhs)
            if t == w:
                assert lhs == rhs or lhs is rhs


@pytest.mark.parametrize(
    "reference, variant",
    [
        (raw_classic_reference, CLASSIC),
        # The concise kernels blank an odd colour only where it was
        # written next to its own earlier occurrence; the reference
        # truncates every outcome.
        (raw_concise_reference, CONCISE),
        (raw_colour_reference, COLOUR),
    ],
    ids=["classic", "concise", "colour"],
)
def test_kernels_equal_the_plainly_written_reference(reference, variant):
    # The same state on every state and colour.
    for b in SWEEP + BENCHMARK_BOUNDS:
        kernels = _kernels(b, variant)
        for w in update_space(b, variant):
            for d in b.colours:
                assert kernels[d](w) == reference(w, d, b)[0], (b, w, d)


def test_colour_and_concise_rules_agree_on_odd_colours_and_colour_2():
    # The lemma behind the rules the colour rule set shares with the
    # concise one (see ``updates._antagonistic_table``): the plainly
    # written colour rules give the concise kernels' state there.
    differ = 0
    for b in SWEEP + BENCHMARK_BOUNDS:
        concise = _kernels(b, CONCISE)
        for w in update_space(b, CONCISE):
            for d in b.colours:
                colour = raw_colour_reference(w, d, b)[0]
                if d % 2 or d == 2:
                    assert colour == concise[d](w), (b, w, d)
                elif colour != concise[d](w):
                    differ += 1
    assert differ > 0


def the_rule(variant, d):
    """The rule set whose rule ``variant`` applies on colour ``d``, as the
    two lemmas say: colour 1 changes no state, the concise rules are the
    classic ones on even colours, and the colour rules are the concise
    ones on odd colours and on colour 2."""
    if d == 1 or d % 2 == 0 and (variant is CONCISE or d == 2):
        return CLASSIC
    return CONCISE if d % 2 and variant is COLOUR else variant


def assert_shared_exactly_by(objects, key):
    """Two of ``objects`` (a dict by (rule set, colour)) are the same
    object exactly when ``key`` gives them the same key."""
    for (a, x), (b, y) in itertools.combinations(objects.items(), 2):
        assert (x is y) == (key(*a) == key(*b)), (a, b)


def test_kernels_columns_and_memo_rows_are_shared_exactly_by_rule():
    for b in SWEEP + BENCHMARK_BOUNDS:
        pairs = [(v, d) for v in UpdateVariant for d in b.colours]
        assert all(rule_set(v, d) is the_rule(v, d) for v, d in pairs), b
        rule = lambda v, d: (the_rule(v, d), d)  # noqa: E731
        over_rule = lambda v, d: (space_variant_for(v), the_rule(v, d), d)  # noqa: E731
        kernels = {v: _kernels(b, v) for v in UpdateVariant}
        assert_shared_exactly_by({(v, d): kernels[v][d] for v, d in pairs}, rule)
        for kind, key in ((UpdateKind.BASIC, rule), (UpdateKind.ANTAGONISTIC, over_rule)):
            moves = {v: step_memo(b, v, kind)[2] for v in UpdateVariant}
            assert_shared_exactly_by({(v, d): moves[v][d] for v, d in pairs}, key)
        columns = {v: _antagonistic_table(b, v)[1] for v in UpdateVariant}
        assert_shared_exactly_by({(v, d): columns[v][d] for v, d in pairs}, over_rule)


@pytest.mark.parametrize("seed", range(4))
def test_basic_products_on_one_memo_share_exactly_the_steps_of_one_rule(seed):
    # Classic, concise and colour products in that order on one memo give
    # the answers they give each on a cleared memo, and the memo holds the
    # union of their steps, a step shared by rule counted once.
    g = normalize_colours(generate_random(40, 10, (1, 3), seed))[0]
    bounds = bounds_for_game(g)
    basic = UpdateKind.BASIC
    alone, steps, taken = {}, set(), 0
    for v in UpdateVariant:
        _shared_memo.cache_clear()
        stats: dict = {}
        alone[v] = solve(g, "product", v, basic, stats=stats), stats
        states, _, moves, _ = step_memo(bounds, v, basic)
        for d, row in moves.items():
            filled = [q for q, x in enumerate(row) if x >= 0]
            steps.update((the_rule(v, d), d, states[q]) for q in filled)
            taken += len(filled)
    _shared_memo.cache_clear()
    for v in UpdateVariant:
        stats = {}
        assert (solve(g, "product", v, basic, stats=stats), stats) == alone[v], v
    rows = {id(row): row for v in UpdateVariant for row in step_memo(bounds, v, basic)[2].values()}
    assert sum(x >= 0 for row in rows.values() for x in row) == len(steps) < taken


def test_the_walk_records_the_block_ends_of_the_neighbour_comparison():
    for b in SWEEP + BENCHMARK_BOUNDS:
        for variant in StatespaceVariant:
            size, ends, *_, ranks = _block_tree(b, variant)
            space = witnesses._statespace(b, variant)
            assert size == len(space), (b, variant)
            assert list(ends) == block_ends_by_neighbours(space), (b, variant)
            assert ranks == list(range(len(space) + 1)), (b, variant)


def test_the_walk_records_each_heads_least_entry_and_slot_cell():
    # The per-head facts of ``witnesses._block_tree``, against the states
    # themselves: ``P``'s least entry, and for ``P``'s overflow slot ``j``
    # (its rightmost index holding Blank or an odd entry) the least entry
    # of ``P[:j]`` and the rank of ``P[:j] + (2,) + Blanks``, or WON's
    # rank when that state is past the budget; cell 0 without a slot.
    # Leaves record nothing.
    cells = {"slot": 0, "past-budget": 0, "no-slot": 0}
    for b in SWEEP + BENCHMARK_BOUNDS:
        top = b.max_colour | 1
        for variant in (StatespaceVariant.CLASSIC_VALUE_CAPPED, StatespaceVariant.CONCISE):
            size, _, least, slot, groups, above, _ = _block_tree(b, variant)
            space = witnesses._statespace(b, variant)
            rank = {w: r for r, w in enumerate(space)}
            assert (groups[0], above[0]) == (size, top), (b, variant)
            for r, w in enumerate(space):
                if w[-1] != B:
                    assert least[r] == slot[r] == 0, (b, variant, w)
                    continue
                P = w[:-1]
                assert least[r] == min(filter(None, P), default=top), (b, variant, w)
                slots = [k for k, x in enumerate(P) if x == B or x % 2]
                cell = slot[r]
                if not slots:
                    assert cell == 0, (b, variant, w)
                    cells["no-slot"] += 1
                    continue
                j = slots[-1]
                group = P[:j] + (2,) + (B,) * (len(P) - j)
                assert cell > 0, (b, variant, w)
                assert above[cell] == min(filter(None, P[:j]), default=top), (b, variant, w)
                assert groups[cell] == rank.get(group, size), (b, variant, w)
                cells["slot" if group in rank else "past-budget"] += 1
    assert min(cells.values()) > 0, cells


def test_update_closure_and_even_stale_unreachable():
    """Capped updates stay inside the space, and the classic even-colour
    stale case never fires (some other rule always applies first)."""
    for maxc, e in [(3, 3), (4, 7), (5, 6), (6, 12)]:
        b = Bounds(max_colour=maxc, e=e)
        for variant in (CLASSIC, CONCISE, COLOUR):
            space = set(update_space(b, variant))
            for w in space:
                for d in b.colours:
                    r, rule = raw_update_with_rule(w, d, b, variant)
                    if d % 2 == 0:
                        assert rule != "stale"
                    r2 = capped_update(w, d, b, variant)
                    assert r2 is WON or r2 in space


def test_updates_never_write_the_lowest_odd_colour():
    """Colour 1 is excluded from capped spaces; no rule ever writes it,
    so the exclusion is closed under updates."""
    b = Bounds(max_colour=5, e=12)
    for variant in (CLASSIC, CONCISE, COLOUR):
        for w in update_space(b, variant):
            for d in b.colours:
                r = capped_update(w, d, b, variant)
                if r is not WON:
                    assert 1 not in r


# --- antagonistic updates ---------------------------------------------------


def test_antagonistic_examples_two_colours_budget_one():
    ref = antagonistic_reference(Bounds(max_colour=2, e=1), CLASSIC)
    assert ref[1][(B,)] == (B,)
    assert ref[2][(B,)] == (2,)
    assert ref[1][(2,)] == (2,)
    assert ref[2][(2,)] is WON
    assert ref[1][WON] is WON


def test_antagonistic_is_at_least_the_basic_update():
    b = Bounds(max_colour=4, e=7)
    for variant in UpdateVariant:
        ref = antagonistic_reference(b, variant)
        for w in update_space(b, variant):
            for d in b.colours:
                basic = capped_update(w, d, b, variant)
                anta = ref[d][w]
                assert state_key(anta) <= state_key(basic)


def test_antagonistic_reference_fast_and_table_agree():
    for maxc, e in [(2, 1), (3, 3), (4, 7), (5, 5), (6, 12)]:
        b = Bounds(max_colour=maxc, e=e)
        for variant in UpdateVariant:
            reference = antagonistic_reference(b, variant)
            table = table_update(b, variant)
            for w in update_space(b, variant) + (WON,):
                for d in b.colours:
                    ref = reference[d][w]
                    fast = antagonistic_update(w, d, b, variant)
                    assert state_key(ref) == state_key(fast) == state_key(table(w, d))


def test_antagonistic_monotone_in_the_state():
    b = Bounds(max_colour=5, e=6)
    for variant in UpdateVariant:
        space = update_space(b, variant) + (WON,)
        table = table_update(b, variant)
        for d in b.colours:
            images = [state_key(table(w, d)) for w in space]
            assert images == sorted(images)


def test_antagonistic_update_enumerates_and_ranks_nothing_at_any_statespace_size():
    # One constructive routine under both names, stepping both above the
    # table cap and, from cold caches (the Bounds switch empties them),
    # within it: ``pgwitness trace --colours 4,7 --e 90 --max-colour 16``.
    assert antagonistic_update is antagonistic_update_fast
    misses = witnesses._statespace.cache_info().misses, _block_tree.cache_info().misses
    b = Bounds(max_colour=10, e=484)
    assert space_size(b, CONCISE) == 291606 > ANTAGONISTIC_TABLE_CAP
    start = (6, 3) + (B,) * 7
    assert antagonistic_update(start, 4, b, CONCISE) == (6, 4) + (B,) * 7
    assert antagonistic_update(start, 7, b, CONCISE) == (7,) + (B,) * 8
    b = Bounds(max_colour=16, e=90)
    assert space_size(b, CONCISE) == 196284 <= ANTAGONISTIC_TABLE_CAP
    run = SepAutomaton(b, CONCISE, UpdateKind.ANTAGONISTIC).run([4, 7])
    assert run == [(B,) * 7, (B,) * 6 + (4,), (B,) * 7]
    assert (witnesses._statespace.cache_info().misses, _block_tree.cache_info().misses) == misses


def test_space_size_is_the_enumerated_size():
    for maxc, e in [(1, 3), (2, 1), (5, 6), (6, 12), (7, 20)]:
        b = Bounds(max_colour=maxc, e=e)
        for variant in UpdateVariant:
            assert space_size(b, variant) == len(update_space(b, variant))
        original = StatespaceVariant.ORIGINAL_LENGTH
        assert statespace_size(b, original) == len(enumerate_statespace(b, original))
    b = Bounds(max_colour=9, e=100)
    assert space_size(b, CLASSIC) == count_classic_by_value(8, 100)
    assert space_size(b, COLOUR) == count_concise_by_value(8, 100)
    assert statespace_size(b, StatespaceVariant.ORIGINAL_LENGTH) == count_monotone_seqs(9, 7)


def test_enumeration_and_update_space_share_one_cache_entry():
    b = Bounds(max_colour=7, e=45)
    misses = witnesses._statespace.cache_info().misses
    listed = enumerate_statespace(b, StatespaceVariant.CONCISE)
    assert tuple(listed) == update_space(b, CONCISE)
    assert witnesses._statespace.cache_info().misses == misses + 1


def test_enumerate_statespace_returns_the_cached_tuple():
    # No copy: the cache holds a plain immutable tuple, so every call with
    # the same Bounds hands out that one object.
    b = Bounds(max_colour=7, e=45)
    listed = enumerate_statespace(b, StatespaceVariant.CONCISE)
    assert type(listed) is tuple
    assert enumerate_statespace(b, StatespaceVariant.CONCISE) is listed
    assert witnesses._statespace(b, StatespaceVariant.CONCISE) is listed


def test_rank_table_agrees_with_the_witness_order_and_the_reference():
    """Ranks sort like ``state_key`` (WON last), and every table entry,
    mapped back to a state, is the reference antagonistic update."""
    for min_c in (1, 2):
        for maxc in range(min_c, 7):
            for e in range(1, 16):
                b = Bounds(max_colour=maxc, e=e, min_colour=min_c)
                for variant in UpdateVariant:
                    won, columns = _antagonistic_table(b, variant)
                    space = update_space(b, variant)
                    rank = {s: r for r, s in enumerate(space)}
                    reference = antagonistic_reference(b, variant)
                    states = space + (WON,)
                    assert won == len(space)
                    assert sorted(states, key=state_key) == list(states)
                    assert [rank[s] for s in space] == list(range(won))
                    for d in b.colours:
                        col = columns[d]
                        assert len(col) == won + 1 and col[won] == won
                        for s in space:
                            ref = reference[d][s]
                            assert states[col[rank[s]]] == ref, (b, variant, d, s)


@pytest.mark.parametrize(
    "bounds", BENCHMARK_BOUNDS + [Bounds(10, 30, min_colour=2)], ids=str
)
def test_block_filled_table_equals_the_suffix_minimum_oracle(bounds):
    for variant in UpdateVariant:
        _, columns = _antagonistic_table(bounds, variant)
        assert columns == suffix_minimum_columns(bounds, variant), variant


def test_colour_table_shares_the_concise_columns():
    b = Bounds(12, 28)
    colour = _antagonistic_table(b, COLOUR)[1]
    concise = _antagonistic_table(b, CONCISE)[1]
    for d in b.colours:
        if d % 2 or d == 2:
            assert colour[d] is concise[d], d
        else:
            assert colour[d] is not concise[d], d


@pytest.mark.parametrize("variant", list(UpdateVariant), ids=lambda v: v.value)
def test_leaf_runs_follow_the_lemma_on_the_kernels(variant):
    """The lemma the column fill relies on (see ``_antagonistic_table``),
    checked on the capped kernels themselves: each head ``P + (Blank,)``
    is followed by its leaves ``P + (2,), P + (4,), ...``; on an even
    colour every leaf has the same outcome; on an odd one every state of
    the head's block has the head's outcome unless the head is stale, and
    then a leaf below the colour goes to the head and one above it stays;
    and colour 2 takes a head to its first leaf, or to WON when it has
    none.  Blocks are found by the neighbour comparison."""
    pairs = 0
    for b in SWEEP + BENCHMARK_BOUNDS:
        kernels = _kernels(b, variant)
        space = update_space(b, variant)
        ends = block_ends_by_neighbours(space)

        def out(w, d):
            return updates._capped(kernels[d], w, b.e)

        heads = [r for r, w in enumerate(space) if w[-1] == B]
        for r, m in zip(heads, heads[1:] + [len(space)]):
            h, leaves = space[r], space[r + 1 : m]
            assert [w[:-1] for w in leaves] == [h[:-1]] * len(leaves), (b, h)
            assert [w[-1] for w in leaves] == list(range(2, 2 * len(leaves) + 1, 2)), (b, h)
            for d in b.colours:
                if d == 2:
                    assert out(h, d) == (leaves[0] if leaves else WON), (b, h)
                outs = [out(w, d) for w in leaves]
                pairs += len(leaves)
                if d % 2 == 0:
                    assert outs == outs[:1] * len(leaves), (b, h, d)
                elif out(h, d) != h:
                    block = space[r : ends[r]]
                    assert [out(w, d) for w in block] == [out(h, d)] * len(block), (b, h, d)
                else:
                    assert outs == [h if w[-1] < d else w for w in leaves], (b, h, d)
    assert pairs > 0


@pytest.mark.parametrize("variant", list(UpdateVariant), ids=lambda v: v.value)
def test_heads_with_no_entry_below_the_colour_follow_the_lemma_on_the_kernels(variant):
    """The head rule the column fill relies on (see ``_antagonistic_table``),
    checked on the capped kernels themselves: when no entry of ``P`` is
    below ``d``, the head ``h = P + (Blank,)`` is stale on an odd ``d``
    and goes to its leaf ``P + (d,)``, of rank ``h + d/2``, on an even
    one, or to WON when it has no leaves.  The colour rules rewrite a
    ``d`` that ends ``P`` into itself, and the resetting greatest colour
    takes no exception either: only the all-Blank head has no entry
    below it, and it resets to itself.  The fill reads the least entry
    from the block tree, with ``max_colour | 1`` for an all-Blank
    ``P``, and half of it as the number of leaves when the head's block
    holds more than the head.  Leaves are found by their shared ``P``,
    blocks by the neighbour comparison."""
    heads = {"odd": 0, "leaf": 0, "won": 0}
    for b in SWEEP + BENCHMARK_BOUNDS:
        kernels = _kernels(b, variant)
        space = update_space(b, variant)
        ends = block_ends_by_neighbours(space)
        recorded = _block_tree(b, space_variant_for(variant))[2]
        for r, h in enumerate(space):
            if h[-1] != B:
                continue
            least = min([x for x in h if x != B], default=b.max_colour | 1)
            assert recorded[r] == least, (b, h)
            m = r + 1
            while m < len(space) and space[m][:-1] == h[:-1]:
                m += 1
            leaves = m - r - 1
            assert leaves == (least >> 1 if ends[r] > r + 1 else 0), (b, h)
            for d in b.colours:
                if least < d:
                    continue
                out = updates._capped(kernels[d], h, b.e)
                if d % 2:
                    assert out == h, (b, h, d)
                    heads["odd"] += 1
                elif leaves:
                    assert out == space[r + d // 2] == h[:-1] + (d,), (b, h, d)
                    heads["leaf"] += 1
                else:
                    assert out is WON, (b, h, d)
                    heads["won"] += 1
    assert min(heads.values()) > 0, heads


@pytest.mark.parametrize("variant", list(UpdateVariant), ids=lambda v: v.value)
def test_evaluated_outcomes_follow_the_block_tree_on_the_kernels(variant):
    """The cases the columns read from the block tree instead of a kernel
    (see ``_antagonistic_table``), checked on the capped kernels
    themselves.  A head ``h = P + (Blank,)`` whose ``P`` has an entry
    below ``d`` has the parent ``p = P[:i] + Blanks``, where ``i`` is the
    index of ``P``'s last non-Blank entry.

    Classic and concise rules: when no entry of ``p`` is below ``d``,
    ``h`` goes to its sibling ``P[:i] + (d,) + Blanks``, a state of the
    space, or to ``p`` when the concise rules blank a repeated ``d``.
    The fill never meets that repeat: ``p``'s own sibling with entry 2,
    later than ``p``'s block, goes to ``p`` too, so ``p``'s block is
    squeezed.  Otherwise ``h`` has ``p``'s outcome (the fill meets this
    on even colours only: on an odd one ``p``'s block is filled whole).

    The colour rules' own colours, even and from 4 up: when no entry of
    ``p`` is below ``d``, the sibling with ``d``, later than ``h``'s
    block, has ``h``'s outcome, whether ``P``'s least entry is even
    (absorbed) or odd (released), so the block is squeezed; heads below
    another entry are never met.

    On an even colour, ``h``'s leaves take ``h``'s outcome when ``h``
    writes before ``P``'s overflow slot ``j`` (its rightmost index
    holding Blank or an odd colour), else ``P[:j] + (d,) + Blanks``, or
    WON past the budget or with no slot; the colour rules' leaf runs are
    met only when no entry of ``P`` is below ``d``."""
    own = variant is COLOUR
    names = ("raise-even", "raise-odd") if own else ("sibling", "repeat", "inherited", "leaf-head")
    cases = dict.fromkeys(names + ("slot", "slot-won", "no-slot"), 0)
    for b in SWEEP + BENCHMARK_BOUNDS:
        kernels = _kernels(b, variant)
        space = update_space(b, variant)
        members = set(space)
        L = b.length

        def out(w, d):
            return updates._capped(kernels[d], w, b.e)

        for h in space:
            if h[-1] != B:
                continue
            P = h[:-1]
            leaves = P + (2,) in members
            for d in b.colours:
                if d == 1 or d % 2 and d == b.max_colour:
                    continue  # the unchanged and the resetting colour
                if own and (d % 2 or d == 2):
                    continue  # the concise rules' columns
                writes = [k for k, x in enumerate(P) if x != B and x < d]
                if writes:
                    i = max(k for k, x in enumerate(P) if x != B)
                    p = P[:i] + (B,) * (L - i)
                    sibling = P[:i] + (d,) + (B,) * (L - 1 - i)
                    if own:
                        if len(writes) > 1:
                            continue  # never met: p's block is squeezed
                        assert sibling in members, (b, h, d)
                        assert out(h, d) == out(sibling, d), (b, h, d)
                        cases["raise-odd" if P[i] % 2 else "raise-even"] += 1
                        continue  # the block is squeezed, leaves and all
                    if all(x >= d for x in p if x != B):
                        if variant is CONCISE and d % 2 and d in p:
                            expected = p
                            cases["repeat"] += 1
                            j = p.index(d)
                            later = p[:j] + (2,) + (B,) * (L - 1 - j)
                            assert later in members and out(later, d) == p, (b, h, d)
                        else:
                            expected = sibling
                            assert expected in members, (b, h, d)
                            cases["sibling"] += 1
                    else:
                        expected = out(p, d)
                        cases["inherited"] += 1
                    assert out(h, d) == expected, (b, h, d)
                if d % 2 or not leaves:
                    continue
                slots = [k for k, x in enumerate(P) if x == B or x % 2]
                if not slots:
                    expected = WON
                    cases["no-slot"] += 1
                elif writes and writes[0] < slots[-1]:
                    expected = out(h, d)
                    cases["leaf-head"] += 1
                else:
                    j = slots[-1]
                    expected = P[:j] + (d,) + (B,) * (L - 1 - j)
                    if witness_value(expected) <= b.e:
                        cases["slot"] += 1
                    else:
                        expected = WON
                        cases["slot-won"] += 1
                assert out(P + (2,), d) == expected, (b, h, d)
    if variant is CLASSIC:
        assert cases.pop("repeat") == 0  # the classic rules blank nothing
    assert min(cases.values()) > 0, cases


@pytest.mark.parametrize(
    "bounds, variant, total, colour_2",
    [
        (Bounds(8, 77), CLASSIC, 14_052, 5_297),
        (Bounds(8, 77), CONCISE, 8_737, 2_918),
        (Bounds(16, 16), CLASSIC, 20_630, 3_529),
        (Bounds(16, 16), CONCISE, 16_073, 2_640),
        (Bounds(8, 77), COLOUR, 5_501, 2_918),
        (Bounds(16, 16), COLOUR, 10_053, 2_640),
    ],
    ids=[
        "8-77-classic", "8-77-concise", "16-16-classic", "16-16-concise",
        "8-77-colour", "16-16-colour",
    ],
)
def test_a_cold_table_build_evaluates_the_rules_this_often(
    monkeypatch, bounds, variant, total, colour_2
):
    calls: dict[int, int] = {}

    def counted(bounds, variant):
        # The kernels themselves, counting each call per colour.
        def wrap(d, kernel):
            def rule(w):
                calls[d] = calls.get(d, 0) + 1
                return kernel(w)

            return kernel if kernel is updates._unchanged else rule

        return {d: wrap(d, k) for d, k in _kernels(bounds, variant).items()}

    monkeypatch.setattr(updates, "_kernels", counted)
    _antagonistic_table.cache_clear()
    _column.cache_clear()
    _antagonistic_table(bounds, variant)
    # Every column reads its outcomes from the block tree: no kernel
    # runs.  The classic and concise columns read the outcomes the kernels
    # gave before, one per head or leaf run that no shortcut fills; the
    # colour rules' own columns squeeze every head with an entry below the
    # colour and read only leaf runs.
    assert calls == {}
    over = space_variant_for(variant)
    reads = {d: _column(bounds, over, rule_set(variant, d), d)[1] for d in bounds.colours}
    assert (sum(reads.values()), reads[2]) == (total, colour_2)
    # At most one outcome per leaf run on colour 2, so never more than
    # the heads, the states that end in Blank.
    assert reads[2] <= sum(1 for w in update_space(bounds, variant) if w[-1] == B)


def test_each_column_is_built_once_by_the_rules_that_decide_it(monkeypatch):
    built: dict[UpdateVariant, set[int]] = {variant: set() for variant in UpdateVariant}
    fetched: dict[UpdateVariant, set[int]] = {variant: set() for variant in UpdateVariant}

    def column(bounds, over, rule, d):
        # The columns themselves, recording each colour a rule builds.
        misses = _column.cache_info().misses
        col = _column(bounds, over, rule, d)
        if _column.cache_info().misses > misses:
            built[rule].add(d)
        return col

    def kernels(bounds, variant):
        # The kernels themselves, recording each colour a column fetches.
        seen = fetched[variant]

        class Kernels(dict):
            def __getitem__(self, d):
                seen.add(d)
                return super().__getitem__(d)

        return Kernels(_kernels(bounds, variant))

    monkeypatch.setattr(updates, "_column", column)
    monkeypatch.setattr(updates, "_kernels", kernels)
    g = generate_random(30, 9, (1, 3), 3)
    e = g.even_vertex_count + 5
    bounds = Bounds(9, e)
    assert bounds_for_game(normalize_colours(g)[0], e) == bounds
    _antagonistic_table.cache_clear()
    _column.cache_clear()

    def rules_run_by(variant):
        """The colours whose columns each rule built in a lifting solve."""
        for record in (built, fetched):
            for colours in record.values():
                colours.clear()
        solve(g, "lifting", variant, UpdateKind.ANTAGONISTIC, e)
        # Every column reads the block tree, and none fetches a kernel.
        assert fetched == {CLASSIC: set(), CONCISE: set(), COLOUR: set()}
        return {rule: set(colours) for rule, colours in built.items()}

    odd = {d for d in bounds.colours if d % 2 and d > 1}
    low = {1, 2}  # the classic rules, for every rule set
    even = set(bounds.colours) - odd - low
    # The concise table builds the classic rules' columns of 1 and the
    # even colours.  A colour lifting solve after a concise one builds
    # only the colour rules' columns, of the even colours from 4 up.
    assert rules_run_by(CONCISE) == {CLASSIC: low | even, CONCISE: odd, COLOUR: set()}
    assert rules_run_by(COLOUR) == {CLASSIC: set(), CONCISE: set(), COLOUR: even}
    # Cold, a colour solve builds the shared columns with the classic and
    # concise rules and no concise column of an even colour from 4 up.
    _antagonistic_table.cache_clear()
    _column.cache_clear()
    assert rules_run_by(COLOUR) == {CLASSIC: low, CONCISE: odd, COLOUR: even}
    assert rules_run_by(CONCISE) == {CLASSIC: even, CONCISE: set(), COLOUR: set()}


@pytest.mark.parametrize(
    "bounds", [Bounds(8, 77), Bounds(16, 16), Bounds(10, 30, min_colour=2)], ids=str
)
def test_memo_basic_steps_equal_the_capped_update(bounds):
    # Every state of these statespaces is reached from the initial one,
    # so closing the memo under every colour steps from each of them.
    # The rule sets share one memo, so each starts from a cleared one.
    for variant in UpdateVariant:
        _shared_memo.cache_clear()
        states, state_id, _, take = step_memo(bounds, variant, UpdateKind.BASIC)
        won = state_id[WON]
        steps = {}
        q = state_id[bounds.blank_witness()]
        while q < len(states):
            for d in bounds.colours:
                steps[q, d] = take(q, d)
            q += 1
        space = update_space(bounds, variant)
        assert set(states) == set(space) | {WON}, variant
        # The other keys are raw outcomes above the budget, kept as
        # aliases of WON's id; a second lookup gives every step again.
        aliases = [s for s, q in state_id.items() if q == won and s is not WON]
        assert len(aliases) == len(state_id) - len(states) > 0, variant
        assert all(witness_value(s) > bounds.e for s in aliases), variant
        assert {key: take(*key) for key in steps} == steps, variant
        rank = {s: r for r, s in enumerate(space)}
        rank[WON] = len(space)
        got = {
            d: [rank[states[steps[state_id[s], d]]] for s in space] + [len(space)]
            for d in bounds.colours
        }
        assert got == basic_columns(bounds, variant), variant


def test_block_trees_and_step_memos_are_cached_per_statespace_and_bounds():
    b = Bounds(9, 37)
    walked = _block_tree.cache_info().misses
    tables = {variant: rank_table(b, variant) for variant in UpdateVariant}
    # One block tree per statespace: concise and colour share one, and
    # colour 1's column is its ranks.
    assert _block_tree.cache_info().misses == walked + 2
    ranks = _block_tree(b, StatespaceVariant.CONCISE)[-1]
    assert tables[CONCISE][1][1] is tables[COLOUR][1][1] is ranks
    assert tables[CLASSIC][1][1] is not ranks
    # Solves that share Bounds share one memo per update kind, whatever
    # their rule sets.
    g = generate_random(30, 9, (1, 3), 0)
    h = generate_random(30, 9, (1, 3), 1)
    for game in (g, h):
        assert bounds_for_game(normalize_colours(game)[0], 37) == b
    solve(g, "product", CONCISE, UpdateKind.BASIC, 37)
    misses = _shared_memo.cache_info().misses
    memo = _shared_memo(b, UpdateKind.BASIC)
    for variant in UpdateVariant:
        solve(h, "product", variant, UpdateKind.BASIC, 37)
        states, state_id = step_memo(b, variant, UpdateKind.BASIC)[:2]
        assert states is memo[0] and state_id is memo[1], variant
    assert _shared_memo.cache_info() == (misses, 1)
    assert _shared_memo(b, UpdateKind.BASIC) is memo
    # A new Bounds drops the memos and tables of the old one.
    step_memo(Bounds(9, 38), CLASSIC, UpdateKind.BASIC)
    assert _shared_memo.cache_info() == (misses + 1, 1)
    assert _block_tree.cache_info().currsize == 0
    assert _shared_memo(b, UpdateKind.BASIC) is not memo


PER_BOUNDS_CACHES = (
    witnesses._statespace,
    _block_tree,
    _column,
    _antagonistic_table,
    _kernels,
    _kernel,
    _shared_memo,
)


def solved_entries(bounds):
    """The arguments of every entry the per-Bounds caches hold after
    lifting and basic product solves of every rule set with ``bounds``."""
    spaces = [(bounds, space) for space in set(map(space_variant_for, UpdateVariant))]
    rules = [(v, d) for v in UpdateVariant for d in bounds.colours]
    return {
        # Solves enumerate no statespace: the tables read block trees.
        witnesses._statespace: [],
        _block_tree: spaces,
        # One column per statespace and rule: the colour table reads the
        # concise columns of colour 1, colour 2 and the odd colours.
        _column: list({(bounds, space_variant_for(v), the_rule(v, d), d) for v, d in rules}),
        _antagonistic_table: [(bounds, variant) for variant in UpdateVariant],
        _kernels: [(bounds, variant) for variant in UpdateVariant],
        # One kernel per rule, and one basic step memo for every rule set.
        _kernel: list({(bounds, the_rule(v, d), d) for v, d in rules}),
        _shared_memo: [(bounds, UpdateKind.BASIC)],
    }


def solve_every_rule_set(g, e):
    for variant in UpdateVariant:
        for algo, kind in (("lifting", UpdateKind.ANTAGONISTIC), ("product", UpdateKind.BASIC)):
            solve(g, algo, variant, kind, e)
    return bounds_for_game(normalize_colours(g)[0], e)


def assert_caches_hold_exactly(entries):
    for cache, args in entries.items():
        info = cache.cache_info()
        assert info.currsize == len(args), cache.__name__
        for a in args:
            cache(*a)
        assert cache.cache_info() == info, cache.__name__


def test_per_bounds_caches_keep_one_bounds_worth():
    # Eight solves of every configuration, each with its own Bounds: after
    # each, every cache holds that Bounds' entries alone.
    g = generate_random(12, 6, (1, 3), 0)
    for e in range(g.even_vertex_count, g.even_vertex_count + 8):
        misses = [cache.cache_info().misses for cache in PER_BOUNDS_CACHES]
        bounds = solve_every_rule_set(g, e)
        assert bounds == Bounds(max_colour=6, e=e)
        assert_caches_hold_exactly(solved_entries(bounds))
        # Emptying the caches on a new Bounds keeps their miss counts.
        assert all(
            cache.cache_info().misses >= before
            for cache, before in zip(PER_BOUNDS_CACHES, misses)
        )
    # A call with another Bounds empties every cache before computing.
    _kernels(Bounds(max_colour=6, e=e + 1), CONCISE)
    assert [cache.cache_info().currsize for cache in PER_BOUNDS_CACHES] == [0, 0, 0, 0, 1, 6, 0]


def test_an_equal_bounds_is_compared_once_and_then_held(monkeypatch):
    # A fresh Bounds equal to the one the caches hold keeps their entries
    # and takes its place, so later calls with it compare nothing.
    held, fresh = Bounds(max_colour=8, e=24), Bounds(max_colour=8, e=24)
    s = held.blank_witness()
    expected = capped_update(s, 2, held, CONCISE)
    misses = [cache.cache_info().misses for cache in PER_BOUNDS_CACHES]
    compared = 0
    equal = Bounds.__eq__

    def counted(self, other):
        nonlocal compared
        compared += 1
        return equal(self, other)

    monkeypatch.setattr(Bounds, "__eq__", counted)
    assert [capped_update(s, 2, fresh, CONCISE) for _ in range(2)] == [expected] * 2
    assert compared == 1
    assert [cache.cache_info().misses for cache in PER_BOUNDS_CACHES] == misses


def test_enumerations_of_other_bounds_leave_nothing_behind_a_solve():
    # Three statespaces of three Bounds, then solves with a fourth: only
    # the fourth Bounds' entries stay, and no statespace among them.
    for bounds, space in zip(
        (Bounds(10, 40), Bounds(12, 20), Bounds(8, 90)), StatespaceVariant
    ):
        enumerate_statespace(bounds, space)
    g = generate_random(20, 8, (1, 3), 4)
    bounds = solve_every_rule_set(g, g.even_vertex_count + 3)
    assert witnesses._statespace.cache_info().currsize == 0
    assert_caches_hold_exactly(solved_entries(bounds))


def test_space_variant_mapping():
    assert space_variant_for(CLASSIC) is StatespaceVariant.CLASSIC_VALUE_CAPPED
    assert space_variant_for(CONCISE) is StatespaceVariant.CONCISE
    assert space_variant_for(COLOUR) is StatespaceVariant.CONCISE
