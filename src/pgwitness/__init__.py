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

from .automata import SepAutomaton, UpdateKind, bounds_for_game
from .counting import (
    count_bitword_measures,
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
    normalize_colours,
    parse_pgsolver,
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
    capped_update,
)
from .witnesses import (
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
    "normalize_colours",
    "parse_pgsolver",
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
    "witness_value",
    "zielonka",
]
