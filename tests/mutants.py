"""Named mutants of the package, each with the tests that must kill it.

Run ``python tests/mutants.py`` from anywhere in a checkout, or
``python tests/mutants.py NAME ...`` for the named mutants only.  For each
mutant it copies the checkout's ``src``, ``tests`` and
``pyproject.toml`` into a temporary directory, replaces the mutant's old
text in its file by the new text, and runs only the mutant's tests there.
A mutant is killed when those tests fail.  One line is printed per
mutant, and the exit code is 1 if any mutant survives (or its tests
could not run), else 0.

``tests/test_mutants.py`` checks in tier-1 that every mutant still
applies: its old text occurs exactly once in its file, and its tests
exist.  A change that claims a mutation check adds the mutant here.
"""

from __future__ import annotations

import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]

UPDATES = "src/pgwitness/updates.py"
SOLVERS = "src/pgwitness/solvers.py"
AUTOMATA = "src/pgwitness/automata.py"
WITNESSES = "src/pgwitness/witnesses.py"
GAMES = "src/pgwitness/games.py"
RECORDS = "src/pgwitness/records.py"
ERRORS = "src/pgwitness/errors.py"

ORACLE = "tests/test_updates.py::test_block_filled_table_equals_the_suffix_minimum_oracle"
RULE_COUNTS = "tests/test_updates.py::test_a_cold_table_build_evaluates_the_rules_this_often"
PRODUCT_ORACLE = "tests/test_solvers.py::test_product_matches_the_naive_product_oracle"
SHARED_BY_RULE = (
    "tests/test_updates.py::test_kernels_columns_and_memo_rows_are_shared_exactly_by_rule"
)
ONE_MEMO = (
    "tests/test_updates.py::test_basic_products_on_one_memo_share_exactly_the_steps_of_one_rule"
)
WALK_ENDS = "tests/test_updates.py::test_the_walk_records_the_block_ends_of_the_neighbour_comparison"
JUSTIFIED_LIFTING = (
    "tests/test_solvers.py::test_justified_lifting_takes_the_lifts_of_the_full_scan_oracle"
)
CAP_BOUNDARY = "tests/test_solvers.py::test_product_cap_admits_exactly_the_product"
DUPLICATED_SUCCESSOR = (
    "tests/test_metamorphic.py::test_a_duplicated_successor_changes_no_answer_and_no_count"
)
RECORD_PARITY = "tests/test_records.py::test_records_behave_as_frozen_dataclasses"
STATE_CHECK = (
    "tests/test_updates.py::test_the_statespace_check_accepts_exactly_the_enumerated_states"
)
WALK_CHAIN = (
    "tests/test_updates.py::test_the_walk_offers_the_first_states_of_the_blocks_after_each_state"
)
THRESHOLDS = (
    "tests/test_solvers.py::test_threshold_solve_matches_backward_induction_over_exits"
)
CONSTRUCTIVE_CHAIN = (
    "tests/test_updates.py::"
    "test_the_constructive_update_evaluates_the_state_and_the_block_end_chain"
)


class Mutant(NamedTuple):
    name: str
    file: str  # relative to the root of the checkout
    old: str  # occurs exactly once in ``file``
    new: str
    tests: tuple[str, ...]  # pytest node ids, relative to the root


MUTANTS = (
    # Heads whose P has no entry below the colour (see _antagonistic_table).
    Mutant(
        "head-leaf-one-past-p-plus-d",
        UPDATES,
        "out = ranks[h + (d >> 1)] if end > h + 1 else won",
        "out = ranks[h + (d >> 1) + 1] if end > h + 1 else won",
        (ORACLE,),
    ),
    Mutant(
        "head-without-leaves-not-won",
        UPDATES,
        "out = ranks[h + (d >> 1)] if end > h + 1 else won",
        "out = ranks[h + (d >> 1)]",
        (ORACLE,),
    ),
    Mutant(
        "head-rule-only-above-the-colour",
        UPDATES,
        "elif least[h] >= d:",
        "elif least[h] > d:",
        (RULE_COUNTS,),
    ),
    Mutant(
        "head-rule-taken-one-colour-lower",
        UPDATES,
        "elif least[h] >= d:",
        "elif least[h] >= d - 1:",
        (ORACLE,),
    ),
    Mutant(
        "all-blank-head-one-leaf-too-many",
        WITNESSES,
        "top = bounds.max_colour | 1",
        "top = bounds.max_colour + 2",
        (ORACLE,),
    ),
    Mutant(
        "least-entry-missed-behind-a-blank",
        WITNESSES,
        "least[n] = last\n            slot[n] = own",
        "least[n] = top\n            slot[n] = own",
        (ORACLE,),
    ),
    Mutant(
        "leaf-run-one-short",
        UPDATES,
        "c = h + 1 + (least[h] >> 1)",
        "c = h + (least[h] >> 1)",
        (RULE_COUNTS,),
    ),
    # Outcomes read from the block tree (see _antagonistic_table).
    Mutant(
        "sibling-taken-as-the-parent",
        UPDATES,
        "sibling = ranks[c]",
        "sibling = out",
        (ORACLE,),
    ),
    Mutant(
        "sibling-replaced-by-the-parent-outcome",
        UPDATES,
        "given = out if least[h] < d else None",
        "given = out",
        (ORACLE,),
    ),
    Mutant(
        "leaf-run-takes-the-head-outcome-when-the-slot-comes-first",
        UPDATES,
        "if above[k] < d:",
        "if least[h] < d:",
        (ORACLE,),
    ),
    # The colour rules' own columns (see _antagonistic_table): a head with
    # an entry below the colour is squeezed, whether that entry is odd
    # (released) or even (absorbed).
    Mutant(
        "colour-head-releasing-an-odd-entry-read-as-the-sibling",
        UPDATES,
        "elif colour:",
        "elif colour and not least[h] & 1:",
        (ORACLE,),
    ),
    Mutant(
        "colour-head-absorbing-an-even-entry-read-as-the-sibling",
        UPDATES,
        "elif colour:",
        "elif colour and least[h] & 1:",
        (ORACLE,),
    ),
    Mutant(
        "inherited-head-does-not-take-the-floor",
        UPDATES,
        "given = out if least[h] < d else None",
        "given = right if least[h] < d else None",
        (ORACLE,),
    ),
    # Earlier rules of the column fill.
    Mutant(
        "stale-leaves-above-d-sent-to-the-head",
        UPDATES,
        "a = min(h + 1 + below, end)",
        "a = end",
        (ORACLE,),
    ),
    Mutant(
        "squeeze-fills-on-floor-at-most-right",
        UPDATES,
        "if floor == right:",
        "if floor <= right:",
        (ORACLE,),
    ),
    Mutant(
        "rank-table-of-another-rule-set",
        UPDATES,
        "return _antagonistic_table(bounds, variant)",
        "return _antagonistic_table("
        "bounds, UpdateVariant.CONCISE if variant is UpdateVariant.COLOUR else variant)",
        ("tests/test_updates.py::test_antagonistic_reference_fast_and_table_agree",),
    ),
    # The walk down one state (witnesses._offers) and the rules it reads.
    Mutant(
        "statespace-check-without-the-value-bound",
        WITNESSES,
        "if not (odd or value + weight <= e):",
        "if False:",
        (STATE_CHECK,),
    ),
    Mutant(
        "concise-walk-repeats-an-odd-entry",
        WITNESSES,
        "while lo < m and (order[lo] > last or concise and order[lo] == last):",
        "while lo < m and order[lo] > last:",
        (STATE_CHECK, WALK_CHAIN),
    ),
    Mutant(
        "walk-offers-candidates-past-the-budget",
        WITNESSES,
        "cuts.append((lo, hi))",
        "cuts.append((lo, hi if x != BLANK else span[3]))",
        (WALK_CHAIN, CONSTRUCTIVE_CHAIN),
    ),
    # The rule each rule set applies (updates.rule_set), and the kernels,
    # columns and step-memo rows shared by rule.
    Mutant(
        "colour-table-also-shares-colour-4",
        UPDATES,
        "return UpdateVariant.CLASSIC if d <= 2 else",
        "return UpdateVariant.CLASSIC if d <= 2 or d == 4 and variant is UpdateVariant.COLOUR else",
        ("tests/test_updates.py::test_colour_table_shares_the_concise_columns",),
    ),
    Mutant(
        "concise-odd-colours-take-the-classic-rule",
        UPDATES,
        "UpdateVariant.CONCISE: (UpdateVariant.CLASSIC, UpdateVariant.CONCISE),",
        "UpdateVariant.CONCISE: (UpdateVariant.CLASSIC, UpdateVariant.CLASSIC),",
        (SHARED_BY_RULE,),
    ),
    Mutant(
        "constructive-rows-shared-across-statespaces",
        AUTOMATA,
        "over = updates.space_variant_for(variant) if kind is UpdateKind.ANTAGONISTIC else None",
        "over = None",
        (SHARED_BY_RULE,),
    ),
    Mutant(
        "colour-basic-rows-share-colour-4",
        AUTOMATA,
        "rows[over, updates.rule_set(variant, d), d]",
        "rows[over, updates.rule_set("
        "UpdateVariant.CONCISE if d == 4 and not over else variant, d), d]",
        (ONE_MEMO, SHARED_BY_RULE),
    ),
    Mutant(
        "concise-truncation-never-fires",
        UPDATES,
        "cuts[i] if d in w else tails[i]",
        "tails[i]",
        ("tests/test_updates.py::test_kernels_equal_the_plainly_written_reference",),
    ),
    # The block tree walk (witnesses._block_tree).
    Mutant(
        "block-ends-cut-short",
        WITNESSES,
        "ends[start] = n\n\n    if bounds.k:",
        "ends[start] = n - 1\n\n    if bounds.k:",
        (WALK_ENDS,),
    ),
    Mutant(
        "walk-ignores-the-budget-at-position-0",
        WITNESSES,
        "n += 1 + (count[last] if seen_odd or value < e else 0)",
        "n += 1 + count[last]",
        (WALK_ENDS,),
    ),
    Mutant(
        "odd-slot-hands-down-the-callers-cell",
        WITNESSES,
        "least[n] = x\n                slot[n] = own",
        "least[n] = x\n                slot[n] = cell",
        (ORACLE,),
    ),
    Mutant(
        "slot-group-one-past-its-first-even-member",
        WITNESSES,
        "groups[own] = n",
        "groups[own] = n + 1",
        (ORACLE,),
    ),
    # The per-Bounds cache rule (witnesses.last_bounds_cache).
    Mutant(
        "per-bounds-caches-kept-across-a-bounds-switch",
        WITNESSES,
        "c.clear()",
        "pass",
        ("tests/test_updates.py::test_per_bounds_caches_keep_one_bounds_worth",),
    ),
    Mutant(
        "bounds-switch-empties-only-the-cache-that-sees-it",
        WITNESSES,
        "for c in _caches:\n                    c.clear()",
        "cache.clear()",
        ("tests/test_updates.py::test_per_bounds_caches_keep_one_bounds_worth",),
    ),
    Mutant(
        "equal-bounds-not-held",
        WITNESSES,
        "c.clear()\n            _cached_bounds = bounds",
        "c.clear()\n                _cached_bounds = bounds",
        ("tests/test_updates.py::test_an_equal_bounds_is_compared_once_and_then_held",),
    ),
    # Game files and the game graph (games).
    Mutant(
        "parser-negative-colour-unchecked",
        GAMES,
        "if colour < 0:",
        "if False:",
        ("tests/test_games.py::test_parse_error_texts",),
    ),
    Mutant(
        "semicolon-in-a-quoted-name-ends-the-statement",
        GAMES,
        "if end >= 0 and text.count('\"', start, end) & 1:",
        "if False:",
        ("tests/test_games.py::test_quoted_name_may_hold_a_semicolon",),
    ),
    Mutant(
        "predecessors-repeat-a-repeated-edge",
        GAMES,
        "for w in dict.fromkeys(self.succ[v]):",
        "for w in self.succ[v]:",
        ("tests/test_games.py::test_predecessors_list_a_repeated_edge_once",),
    ),
    Mutant(
        "normalised-game-returned-when-colours-change",
        GAMES,
        "if all(c == new for c, new in mapping.items()):",
        "if True:",
        ("tests/test_games.py::test_normalize_colours_returns_an_already_normalised_game_itself",),
    ),
    # The lifting loop's justifications (solvers._lift).
    Mutant(
        "odd-justification-kept-when-its-successor-lifts",
        SOLVERS,
        "elif just[p] == v:\n                    just[p] = -1",
        "elif just[p] == v:\n                    pass",
        (JUSTIFIED_LIFTING,),
    ),
    Mutant(
        "even-maximum-raised-from-the-lifted-vertex-column",
        SOLVERS,
        "x = column[p][new]",
        "x = column[v][new]",
        (JUSTIFIED_LIFTING,),
    ),
    # The one way into the witness solvers (solvers.solve, automata.admit).
    Mutant(
        "admission-without-the-budget-comparison",
        AUTOMATA,
        "own = bounds_for_game(game, bounds.e)",
        "own = bounds_for_game(game)",
        ("tests/test_solvers.py::test_witness_solvers_admit_only_an_automaton_that_separates",),
    ),
    Mutant(
        "zero-budget-counter-keys-swapped",
        SOLVERS,
        "stats[WORK_COUNTERS[algo]] = 0",
        'stats[WORK_COUNTERS["product" if algo == "lifting" else "lifting"]] = 0',
        ("tests/test_solvers.py::test_solve_all_odd_game_short_circuits_to_odd",),
    ),
    # The product's exits (solvers._solve_exits).
    Mutant(
        "second-predecessor-dropped",
        SOLVERS,
        "more[y] = [x]",
        "more[y] = []",
        (PRODUCT_ORACLE,),
    ),
    Mutant(
        "third-predecessor-replaces-the-second",
        SOLVERS,
        "more[y].append(x)",
        "more[y] = [x]",
        (PRODUCT_ORACLE,),
    ),
    Mutant(
        "won-exit-seeded-but-not-queued",
        SOLVERS,
        "count[y] = 0\n            queue.append(y)",
        "count[y] = 0",
        (PRODUCT_ORACLE,),
    ),
    Mutant(
        "odd-countdown-from-the-distinct-successors",
        SOLVERS,
        "1 if o == EVEN else len(ws)",
        "1 if o == EVEN else len(set(ws))",
        (DUPLICATED_SUCCESSOR,),
    ),
    Mutant(
        "exploration-runs-past-the-cap",
        SOLVERS,
        "if len(first) > cap:",
        "if False:",
        (CAP_BOUNDARY,),
    ),
    Mutant(
        "positions-without-the-initial-state",
        SOLVERS,
        "len({initial}.union(",
        "len(set().union(",
        (PRODUCT_ORACLE,),
    ),
    # The product's threshold ranks (solvers._solve_thresholds).
    Mutant(
        "odd-threshold-kept-when-its-justification-falls",
        SOLVERS,
        "elif just[u] != w:\n                    continue",
        "elif True:\n                    continue",
        (THRESHOLDS,),
    ),
    Mutant(
        "even-running-minimum-never-lowered",
        SOLVERS,
        "just[u] = a",
        "pass",
        (THRESHOLDS,),
    ),
    Mutant(
        "thresholds-seeded-from-zero",
        SOLVERS,
        "alpha = [bisect_left(col, won) for col in column]",
        "alpha = [0 for col in column]",
        (THRESHOLDS, PRODUCT_ORACLE),
    ),
    Mutant(
        "odd-threshold-from-the-least-successor",
        SOLVERS,
        "if y > t:",
        "if y < t:",
        (THRESHOLDS,),
    ),
    Mutant(
        "threshold-rank-one-past-the-least-winning-state",
        SOLVERS,
        "a = bisect_left(column[w], t)",
        "a = bisect_left(column[w], t + 1)",
        (THRESHOLDS,),
    ),
    # The exit code each error type carries (errors).
    Mutant(
        "resource-cap-exits-2",
        ERRORS,
        "exit_code = 3",
        "exit_code = 2",
        ("tests/test_cli.py::test_solve_lifting_above_the_table_cap_exits_3",),
    ),
    # The value records (records.Record): equality on the fields without a
    # default only, so that Bounds ignores min_colour, and no assignment
    # guard, so that a game's fields can be set.
    Mutant(
        "bounds-equality-ignores-min-colour",
        RECORDS,
        "for f in self._fields])",
        "for f in self._fields if f not in type(self).__dict__])",
        (RECORD_PARITY,),
    ),
    Mutant(
        "game-fields-assignable",
        RECORDS,
        'raise AttributeError(f"cannot assign to field {name!r}")',
        "object.__setattr__(self, name, value)",
        (RECORD_PARITY,),
    ),
)


def killed(mutant: Mutant) -> bool | None:
    """Whether the mutant's tests fail on a mutated copy of the checkout;
    None when they could not run (pytest exit codes other than 0 and 1)."""
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp)
        ignore = shutil.ignore_patterns("__pycache__", ".hypothesis")
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, copy / part, ignore=ignore)
        shutil.copy(ROOT / "pyproject.toml", copy)
        path = copy / mutant.file
        text = path.read_text(encoding="utf-8")
        if text.count(mutant.old) != 1:
            return None
        path.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")
        cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *mutant.tests]
        code = subprocess.run(cmd, cwd=copy, capture_output=True).returncode
    return {0: False, 1: True}.get(code)


def main(names: list[str]) -> int:
    """Run the named mutants, or every mutant when none is named."""
    unknown = set(names) - {m.name for m in MUTANTS}
    if unknown:
        print(f"no such mutant: {', '.join(sorted(unknown))}", file=sys.stderr)
        return 2
    chosen = [m for m in MUTANTS if not names or m.name in names]
    start = time.perf_counter()
    survivors = 0
    for m in chosen:
        result = killed(m)
        survivors += result is not True
        verdict = {True: "killed", False: "SURVIVED", None: "ERROR (tests did not run)"}[result]
        print(f"{verdict:9} {m.name}", flush=True)
    print(f"{len(chosen) - survivors}/{len(chosen)} killed in {time.perf_counter() - start:.0f} s")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
