"""End-to-end acceptance suite.

One test per numbered criterion.  Each test computes its violations
first, prints a single ``CRITERION n: PASS/FAIL`` report line, and then
asserts — so a failure always carries the report in its captured output.
All numeric expectations are pinned to exact integers; the only
tolerances are the wall-clock budgets asserted where stated.

The two reference tables below are frozen expectations for the scaled
statespace-size tables.  Six reference cells disagree with exact
computation in characterized ways (one obvious typo, two cells rounded
to five significant figures, four cells rounded to nearest instead of
floored, and one non-numeric cell).  Those cells are asserted through
their exact relationship to the computed value and reported
individually; nothing is asserted with an interval.
"""

from __future__ import annotations

import random
import time
from math import comb

from oracles import (
    antagonistic_reference,
    even_positions,
    is_classic_witness,
    is_colour_witness,
    longest_even_chain,
    play_word,
    random_play,
    table_update,
    truncate_odd_repeats,
    update_space,
    witness_cmp,
)
from pgwitness.automata import SepAutomaton, UpdateKind, bounds_for_game
from pgwitness.counting import (
    count_bitword_measures,
    count_classic_by_value,
    count_concise_by_length,
    count_concise_by_length_value,
    count_concise_by_value,
    count_monotone_seqs,
    count_odd_once,
    statespace_totals,
    table_fixed_colours,
    table_linear_colours,
    total_bitword_measures,
    total_monotone_seqs,
)
from pgwitness.games import generate_random
from pgwitness.solvers import differential, solve
from pgwitness.updates import (
    UpdateVariant,
    antagonistic_update,
    capped_update,
    space_variant_for,
)
from pgwitness.witnesses import (
    WON,
    Bounds,
    StatespaceVariant,
    enumerate_statespace,
    state_key,
    witness_value,
)

# Reference cells for the fixed-colour table (scaled by 10^3, floored),
# rows 2..13.  Row 1 (n=8) is special-cased: its reference cells are the
# ceilings 2 / 1 and the non-numeric ">1".
REFERENCE_FIXED: dict[int, tuple[int, int, int]] = {
    16: (8, 5, 1),
    32: (33, 18, 5),
    64: (122, 61, 17),
    128: (432, 187, 52),
    256: (1462, 553, 154),
    512: (4780, 1579, 439),
    1024: (15157, 4374, 1211),
    2048: (46813, 11829, 3261),
    4096: (141264, 31326, 8601),
    8192: (417577, 81461, 22282),
    16384: (1211700, 208470, 56819),
    32768: (3458200, 525991, 142884),
}
# The old-column cells of these two rows are the exact values rounded to
# five significant figures rather than floored.
FIXED_SIG5_OLD_ROWS = (16384, 32768)

# Reference cells for the linear-colour table (scaled by 10^6, floored).
REFERENCE_LINEAR: dict[int, tuple[int, int, int]] = {
    260: (381, 190, 53),
    280: (622, 318, 90),
    300: (987, 518, 148),
    320: (11531, 820, 251),
    340: (2323, 1271, 389),
    360: (3456, 1928, 608),
    380: (5054, 2870, 926),
    400: (7271, 4201, 1759),
    420: (10309, 6053, 2584),
    440: (14420, 8596, 3724),
    460: (19919, 12047, 5838),
    480: (27199, 16675, 8625),
    500: (36742, 22818, 12200),
}
# Cells rounded to nearest in the reference instead of floored,
# and the one obvious typo cell (320 old: 11531 for computed 1531).
LINEAR_ROUNDED_CELLS = {(440, "old"), (480, "old"), (480, "jl"), (500, "jl")}
LINEAR_TYPO_CELL = (320, "old")

# The differential-harness schedule shared by criteria 5 and 8:
# 10 chunks of 50 seeds with growing size and colour count.
HARNESS_CHUNKS: tuple[tuple[int, int, range], ...] = tuple(
    (min(4 + chunk, 12), 1 + chunk % 6, range(chunk * 50, chunk * 50 + 50))
    for chunk in range(10)
)


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"CRITERION {num}: {'PASS' if ok else 'FAIL'} - {detail}")


def _sig5_scaled(x: int, divisor: int) -> int:
    """Round ``x`` to five significant figures, then scale down."""
    m = 10 ** max(len(str(x)) - 5, 0)
    q, r = divmod(x, m)
    if 2 * r >= m:
        q += 1
    return q * m // divisor


def test_criterion_1_fixed_colour_table():
    t0 = time.perf_counter()
    rows = {r["n"]: r for r in table_fixed_colours()}
    problems: list[str] = []
    reported: list[str] = []

    # Row 1: full-precision pins; reference shows ceilings and ">1".
    r8 = rows[8]
    if (r8["old_exact"], r8["jl_exact"], r8["new_exact"]) != (1060, 770, 225):
        problems.append(f"row 8 exact totals {r8}")
    if (-(-r8["old_exact"] // 1000), -(-r8["jl_exact"] // 1000)) != (2, 1):
        problems.append("row 8 ceilings do not give the reference cells 2/1")
    reported.append("n=8 new: computed 225 (0.225k), reference cell is '>1'")

    for n, (ref_old, ref_jl, ref_new) in REFERENCE_FIXED.items():
        r = rows[n]
        if n in FIXED_SIG5_OLD_ROWS:
            floor = r["old_exact"] // 1000
            sig5 = _sig5_scaled(r["old_exact"], 1000)
            if floor == ref_old or sig5 != ref_old:
                problems.append(
                    f"n={n} old: floor {floor}, 5-sig-fig {sig5}, reference {ref_old}"
                )
            reported.append(
                f"n={n} old: computed floor {floor}, reference {ref_old} "
                f"(= 5-significant-figure rounding)"
            )
        elif r["old_k"] != ref_old:
            problems.append(f"n={n} old_k {r['old_k']} != {ref_old}")
        if r["jl_k"] != ref_jl:
            problems.append(f"n={n} jl_k {r['jl_k']} != {ref_jl}")
        if r["new_k"] != ref_new:
            problems.append(f"n={n} new_k {r['new_k']} != {ref_new}")

    # Full-precision anchors.  Two quoted anchors are the bare sums, two
    # less than the totals (the closed forms add the all-blank state and
    # the Won state); assert both the totals and the exact relationship.
    old_1024, jl_1024, new_1024 = statespace_totals(1024, 10)
    bare_old = sum(comb(11, i) * comb(i + 9, i) for i in range(1, 12))
    bare_jl = sum(
        (1 << i) * comb(5, j) * comb(i - 1, j - 1)
        for i in range(1, 12)
        for j in range(1, min(i, 5) + 1)
    )
    if not (old_1024 == bare_old + 2 == 15_157_189):
        problems.append(f"old(1024,10) = {old_1024}, bare sum {bare_old}")
    if not (jl_1024 == bare_jl + 2 == 4_374_528):
        problems.append(f"jl(1024,10) = {jl_1024}, bare sum {bare_jl}")
    if new_1024 != 1_211_398:
        problems.append(f"new(1024,10) = {new_1024}")
    if statespace_totals(256, 10)[1] != 553_984:
        problems.append("jl(256,10) != 553984")
    ratio = rows[32768]["new_exact"] / rows[32768]["jl_exact"]
    if round(ratio, 2) != 0.27:
        problems.append(f"new/jl ratio at 32768 is {ratio:.4f}")

    elapsed = time.perf_counter() - t0
    ok = not problems and elapsed < 5.0
    _report(
        1,
        ok,
        f"13 rows checked, {len(reported)} reference cells reported "
        f"({'; '.join(reported)}), ratio {ratio:.4f}, {elapsed:.2f}s (< 5s)",
    )
    assert not problems, problems
    assert elapsed < 5.0, f"{elapsed:.2f}s"


def test_criterion_2_linear_colour_table():
    t0 = time.perf_counter()
    rows = {r["n"]: r for r in table_linear_colours()}
    problems: list[str] = []
    reported: list[str] = []
    for n, (ref_old, ref_jl, ref_new) in REFERENCE_LINEAR.items():
        r = rows[n]
        for col, ref in (("old", ref_old), ("jl", ref_jl), ("new", ref_new)):
            exact = r[f"{col}_exact"]
            floor = exact // 10**6
            if (n, col) == LINEAR_TYPO_CELL:
                if floor != 1531:
                    problems.append(f"n=320 old floor {floor} != 1531")
                reported.append(
                    f"n=320 old: computed {floor}, reference cell reads {ref}"
                )
            elif (n, col) in LINEAR_ROUNDED_CELLS:
                nearest = (exact + 500_000) // 10**6
                if floor != ref - 1 or nearest != ref:
                    problems.append(
                        f"n={n} {col}: floor {floor}, nearest {nearest}, "
                        f"reference {ref}"
                    )
                reported.append(
                    f"n={n} {col}: computed floor {floor}, reference {ref} "
                    f"(= rounding to nearest)"
                )
            elif floor != ref:
                problems.append(f"n={n} {col}: floor {floor} != {ref}")
    elapsed = time.perf_counter() - t0
    ok = not problems and elapsed < 30.0
    _report(
        2,
        ok,
        f"13 rows checked, {len(reported)} cells reported "
        f"({'; '.join(reported)}), {elapsed:.2f}s (< 30s)",
    )
    assert not problems, problems
    assert elapsed < 30.0, f"{elapsed:.2f}s"


def test_criterion_3_counting_identities():
    t0 = time.perf_counter()
    for c in range(2, 21, 2):
        for l in range(1, 15):
            assert count_odd_once(c, l) == count_bitword_measures(c, l), (c, l)
    for c in range(1, 21):
        for l in range(1, 15):
            assert total_monotone_seqs(c, l) == count_monotone_seqs(c, l) + 1, (c, l)
    for c in range(2, 21):
        for l in range(0, 15):
            assert total_bitword_measures(c, l) == count_bitword_measures(c, l) + 1, (
                c,
                l,
            )
    for ec in range(2, 13, 2):
        for l in range(2, 13):
            assert count_concise_by_length_value(
                ec, l, (1 << l) - 1
            ) == count_concise_by_length(ec, l), (ec, l)
            assert count_concise_by_length_value(
                ec, l, 1 << (l - 1)
            ) == count_concise_by_length(ec, l) // 2 + ec // 2, (ec, l)
    elapsed = time.perf_counter() - t0
    _report(3, True, f"all identity sweeps exact, {elapsed:.2f}s")


def test_criterion_4_enumeration_matches_counts():
    t0 = time.perf_counter()
    checked = 0
    for min_c in (1, 2):
        for max_c in range(min_c, 7):
            for e in range(1, 32):
                b = Bounds(max_colour=max_c, e=e, min_colour=min_c)
                n_orig = len(enumerate_statespace(b, StatespaceVariant.ORIGINAL_LENGTH))
                assert n_orig == count_monotone_seqs(
                    max_c - min_c + 1, e.bit_length()
                ), (b, "original-length")
                n_con = len(enumerate_statespace(b, StatespaceVariant.CONCISE))
                assert n_con == count_concise_by_value(2 * (max_c // 2), e), (
                    b,
                    "concise",
                )
                n_cls = len(enumerate_statespace(b, StatespaceVariant.CLASSIC_VALUE_CAPPED))
                assert n_cls == count_classic_by_value(2 * (max_c // 2), e), (
                    b,
                    "classic-value-capped",
                )
                checked += 1
    elapsed = time.perf_counter() - t0
    ok = elapsed < 60.0
    _report(4, ok, f"{checked} bounds, all three formulas exact, {elapsed:.2f}s (< 60s)")
    assert elapsed < 60.0, f"{elapsed:.2f}s"


def test_criterion_5_differential_agreement():
    t0 = time.perf_counter()
    games = 0
    disagreements: list[int] = []
    for n, mc, seeds in HARNESS_CHUNKS:
        rows = differential(seeds, n=n, max_colour=mc)
        games += len(rows)
        disagreements += [r["seed"] for r in rows if not r["agree"]]
    elapsed = time.perf_counter() - t0
    ok = games >= 500 and not disagreements and elapsed < 600.0
    _report(
        5,
        ok,
        f"{games} games x 9 witness methods vs the recursive oracle, "
        f"{len(disagreements)} disagreements, {elapsed:.1f}s (< 600s)",
    )
    assert games >= 500
    assert not disagreements, disagreements
    assert elapsed < 600.0, f"{elapsed:.1f}s"


def test_criterion_6_update_soundness():
    t0 = time.perf_counter()
    prefixes = 0
    states_checked = 0
    won_events = 0
    violations: list[tuple] = []
    for seed in range(10_000):
        n = 3 + seed % 6
        mc = 1 + seed % 5
        g = generate_random(n, mc, (1, 3), seed)
        b = bounds_for_game(g)
        word = play_word(g, random_play(g, 1 + seed % 12, seed))
        prefixes += 1
        if b is None:
            if longest_even_chain(word) != 0:
                violations.append((seed, "budget-0 word with an even chain"))
            continue
        classic = SepAutomaton(bounds=b, variant=UpdateVariant.CLASSIC).run(word)
        concise = SepAutomaton(bounds=b, variant=UpdateVariant.CONCISE).run(word)
        colour = SepAutomaton(bounds=b, variant=UpdateVariant.COLOUR).run(word)
        for i in range(len(word) + 1):
            prefix = word[:i]
            for trace, checker in (
                (classic, is_classic_witness),
                (colour, is_colour_witness),
            ):
                s = trace[i]
                if s is WON:
                    won_events += 1
                    if longest_even_chain(prefix) <= b.e:
                        violations.append((seed, i, "Won without a long chain"))
                else:
                    states_checked += 1
                    if not checker(s, prefix):
                        violations.append((seed, i, checker.__name__, s, prefix))
            # The concise trace is the pointwise truncation of the
            # classic trace, so its states are sound iff the classic
            # states are and truncation preserves the claims.
            k, c = classic[i], concise[i]
            states_checked += 1
            if k is WON:
                if c is not WON:
                    violations.append((seed, i, "concise lags classic at Won"))
            elif c != truncate_odd_repeats(k):
                violations.append((seed, i, "concise != truncated classic"))
    elapsed = time.perf_counter() - t0
    ok = prefixes >= 10_000 and not violations
    _report(
        6,
        ok,
        f"{prefixes} prefixes, {states_checked} states checked, "
        f"{won_events} Won events, {len(violations)} violations, {elapsed:.1f}s",
    )
    assert prefixes >= 10_000
    assert not violations, violations[:5]


def test_criterion_7_order_and_monotonicity():
    """Order and monotonicity on every criterion-4 update statespace.

    The solvers read the antagonistic update from the suffix-minima
    table (``oracles.table_update``), which this test compares in bulk
    against the constructive routine (``antagonistic_update``) on every
    state and colour, and against the per-state suffix-minimum reference
    (``oracles.antagonistic_reference``) on sampled states.
    """
    t0 = time.perf_counter()
    rng = random.Random(7)
    order_pairs = au_checks = ref_spots = capped_checks = 0
    for min_c in (1, 2):
        for max_c in range(min_c, 7):
            for e in range(1, 32):
                b = Bounds(max_colour=max_c, e=e, min_colour=min_c)
                seen_spaces = set()
                for variant in UpdateVariant:
                    space = update_space(b, variant)
                    reference = antagonistic_reference(b, variant)
                    sv = space_variant_for(variant)
                    if sv not in seen_spaces:
                        seen_spaces.add(sv)
                        for a, c in zip(space, space[1:]):
                            assert witness_cmp(a, c) < 0 and witness_cmp(c, a) > 0
                            assert witness_cmp(a, a) == 0
                            order_pairs += 1
                        full = list(space) + [WON]
                        for _ in range(60):
                            i = rng.randrange(len(full))
                            j = rng.randrange(len(full))
                            cmp = witness_cmp(full[i], full[j])
                            assert (cmp > 0) == (i > j) and (cmp < 0) == (i < j), (
                                b,
                                i,
                                j,
                            )
                            order_pairs += 1
                    table = table_update(b, variant)
                    for d in range(b.min_colour, b.max_colour + 1):
                        prev_key = None
                        for s in space:
                            out = table(s, d)
                            k = state_key(out)
                            if prev_key is not None:
                                assert prev_key <= k, (b, variant, d, s)
                            prev_key = k
                            assert antagonistic_update(s, d, b, variant) == out, (
                                b,
                                variant,
                                d,
                                s,
                            )
                            au_checks += 1
                        assert table(WON, d) is antagonistic_update(WON, d, b, variant) is WON
                        for s in rng.sample(space, min(4, len(space))):
                            assert reference[d][s] == table(s, d), (b, variant, d, s)
                            ref_spots += 1
                con_space = update_space(b, UpdateVariant.CONCISE)
                for d in range(b.min_colour, b.max_colour + 1):
                    for s in con_space:
                        hi = capped_update(s, d, b, UpdateVariant.COLOUR)
                        lo = capped_update(s, d, b, UpdateVariant.CONCISE)
                        assert state_key(hi) >= state_key(lo), (b, d, s)
                        capped_checks += 1
    elapsed = time.perf_counter() - t0
    _report(
        7,
        True,
        f"{order_pairs} order pairs, {au_checks} antagonistic checks, "
        f"{ref_spots} reference spots, {capped_checks} capped dominance "
        f"comparisons, {elapsed:.1f}s",
    )


def test_criterion_8_convergence_counts():
    """Colour-update convergence: exact e+1 acceptance, and lift counts.

    The second clause asserts that the recorded lift counts satisfy
    colour <= classic on every harness game.  The property does NOT
    hold universally: the colour rules stabilise at strictly higher
    non-winning evidence on some games (winners still agree
    everywhere), which can cost extra lifts.  The assertion is kept as
    stated and the counterexamples are reported, so this test fails by
    design; see the report line for the violating seeds.
    """
    t0 = time.perf_counter()
    problems: list[str] = []
    for e in (4, 8, 16):
        aut = SepAutomaton(
            bounds=Bounds(max_colour=2, e=e), variant=UpdateVariant.COLOUR
        )
        if not aut.accepts([2] * (e + 1)) or aut.accepts([2] * e):
            problems.append(f"e={e}: acceptance not at exactly e+1 steps")
    exact_ok = not problems

    violations: list[tuple[int, int, int]] = []
    games = 0
    for n, mc, seeds in HARNESS_CHUNKS:
        for seed in seeds:
            g = generate_random(n, mc, (1, 3), seed)
            st_col: dict = {}
            st_cls: dict = {}
            solve(g, "lifting", UpdateVariant.COLOUR, UpdateKind.ANTAGONISTIC, stats=st_col)
            solve(g, "lifting", UpdateVariant.CLASSIC, UpdateKind.ANTAGONISTIC, stats=st_cls)
            games += 1
            if st_col["lifts"] > st_cls["lifts"]:
                violations.append((seed, st_col["lifts"], st_cls["lifts"]))
    elapsed = time.perf_counter() - t0
    ok = exact_ok and not violations
    _report(
        8,
        ok,
        f"e+1 acceptance {'exact' if exact_ok else 'BROKEN'} for e in (4, 8, 16); "
        f"colour > classic lifts on {len(violations)}/{games} games "
        f"(seed, colour, classic): {violations}; {elapsed:.1f}s",
    )
    assert exact_ok, problems
    assert not violations, (
        f"colour lifting exceeded classic lift counts on {len(violations)} "
        f"of {games} games: {violations}"
    )


def test_concise_lifting_never_lifts_more_than_classic_on_the_harness_games():
    """The claim that held where criterion 8's does not: on each of the
    harness games concise lifting makes no more lifts than classic
    lifting.  The lift totals of the three rule sets are pinned too, so
    that a change to the tables or the lifting loop that moves any lift
    shows here."""
    totals = dict.fromkeys(UpdateVariant, 0)
    more = []
    for n, mc, seeds in HARNESS_CHUNKS:
        for seed in seeds:
            g = generate_random(n, mc, (1, 3), seed)
            lifts = {}
            for variant in UpdateVariant:
                stats: dict = {}
                solve(g, "lifting", variant, UpdateKind.ANTAGONISTIC, stats=stats)
                lifts[variant] = stats["lifts"]
                totals[variant] += stats["lifts"]
            if lifts[UpdateVariant.CONCISE] > lifts[UpdateVariant.CLASSIC]:
                more.append(seed)
    assert more == []
    assert totals == {
        UpdateVariant.CLASSIC: 10_626,
        UpdateVariant.CONCISE: 10_421,
        UpdateVariant.COLOUR: 10_346,
    }


def test_criterion_9_truncation_invariants():
    t0 = time.perf_counter()
    states = 0
    for min_c in (1, 2):
        for max_c in range(min_c, 7):
            for e in range(1, 32):
                b = Bounds(max_colour=max_c, e=e, min_colour=min_c)
                for sv in (
                    StatespaceVariant.ORIGINAL_LENGTH,
                    StatespaceVariant.CLASSIC_VALUE_CAPPED,
                ):
                    for w in enumerate_statespace(b, sv):
                        t = truncate_odd_repeats(w)
                        assert witness_value(t) == witness_value(w), (b, sv, w)
                        assert even_positions(t) == even_positions(w), (b, sv, w)
                        assert truncate_odd_repeats(t) == t, (b, sv, w)
                        states += 1
    elapsed = time.perf_counter() - t0
    _report(9, True, f"{states} states, all three invariants exact, {elapsed:.1f}s")
