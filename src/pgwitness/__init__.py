"""Parity game solving via witness-based separating automata.

The package builds three families of witness statespaces over a game's
colours (full-length monotone sequences, value-capped sequences, and a
concise variant that records each odd colour at most once), equips them
with basic and antagonistic update rules, and solves parity games three
ways: a recursive attractor decomposition, a reachability product with
a separating automaton, and monotone lifting of the antagonistic update
to a least fixpoint.  A counting module reproduces closed-form and
recursive statespace sizes for comparing the three families.
"""

from __future__ import annotations

from .automata import SepAutomaton, UpdateKind, bounds_for_game, play_word
from .counting import (
    count_bitword_measures,
    count_concise_by_length,
    count_concise_by_length_value,
    count_concise_by_value,
    count_evenweight_by_length_value,
    count_monotone_seqs,
    count_odd_once,
    half_budget_identity,
    statespace_totals,
    table_fixed_colours,
    table_linear_colours,
    total_bitword_measures,
    total_monotone_seqs,
)
from .errors import (
    GameParseError,
    InternalInvariantError,
    PgwitnessError,
    ResourceCapError,
)
from .games import (
    EVEN,
    ODD,
    ParityGame,
    generate_random,
    longest_even_chain,
    normalize_colours,
    parse_pgsolver,
    random_play,
    serialize_pgsolver,
)
from .solvers import (
    WinningSets,
    attractor,
    differential,
    solve,
    solve_lifting,
    solve_product,
    zielonka,
)
from .updates import (
    UpdateVariant,
    antagonistic_update,
    antagonistic_update_fast,
    capped_update,
)
from .witnesses import (
    BLANK,
    WON,
    Bounds,
    StatespaceVariant,
    entry_key,
    enumerate_statespace,
    is_classic_witness,
    is_colour_witness,
    state_key,
    state_str,
    truncate_odd_repeats,
    witness_cmp,
    witness_value,
)

__version__ = "0.1.0"

__all__ = [
    "BLANK",
    "Bounds",
    "EVEN",
    "GameParseError",
    "InternalInvariantError",
    "ODD",
    "ParityGame",
    "PgwitnessError",
    "ResourceCapError",
    "SepAutomaton",
    "StatespaceVariant",
    "UpdateKind",
    "UpdateVariant",
    "WON",
    "WinningSets",
    "antagonistic_update",
    "antagonistic_update_fast",
    "attractor",
    "bounds_for_game",
    "capped_update",
    "count_bitword_measures",
    "count_concise_by_length",
    "count_concise_by_length_value",
    "count_concise_by_value",
    "count_evenweight_by_length_value",
    "count_monotone_seqs",
    "count_odd_once",
    "differential",
    "entry_key",
    "enumerate_statespace",
    "generate_random",
    "half_budget_identity",
    "is_classic_witness",
    "is_colour_witness",
    "longest_even_chain",
    "normalize_colours",
    "parse_pgsolver",
    "play_word",
    "random_play",
    "serialize_pgsolver",
    "solve",
    "solve_lifting",
    "solve_product",
    "state_key",
    "state_str",
    "statespace_totals",
    "table_fixed_colours",
    "table_linear_colours",
    "total_bitword_measures",
    "total_monotone_seqs",
    "truncate_odd_repeats",
    "witness_cmp",
    "witness_value",
    "zielonka",
]
