"""Command-line interface.

Subcommands: ``solve`` a game file, ``trace`` an automaton run over a
colour word, ``enumerate`` a witness statespace, ``count`` statespace
sizes (single sweeps or the two comparison tables), ``gen`` a random
game, and ``diff`` for cross-validating every solver on random games.

Exit codes: 0 success, 2 malformed input, 3 resource cap exceeded,
4 internal invariant violated (including solver disagreement in
``diff``).
"""

from __future__ import annotations

import argparse
import sys
from collections.abc import Sequence

from . import counting
from .automata import SepAutomaton, UpdateKind
from .errors import GameParseError, InternalInvariantError, ResourceCapError
from .games import generate_random, parse_pgsolver, serialize_pgsolver
from .solvers import differential, solve
from .updates import UpdateVariant
from .witnesses import (
    DEFAULT_SPACE_CAP,
    WON,
    Bounds,
    StatespaceVariant,
    capped_statespace_size,
    enumerate_statespace,
    state_str,
)


def _parse_range(text: str) -> tuple[int, int]:
    lo, _, hi = text.partition("..")
    try:
        a, b = int(lo), int(hi if hi else lo)
    except ValueError:
        raise ValueError(f"expected a range like 2..5, got {text!r}")
    if a > b:
        raise ValueError(f"empty range {text!r}")
    return a, b


def _parse_colours(text: str) -> list[int]:
    try:
        word = [int(t) for t in text.split(",") if t.strip() != ""]
    except ValueError:
        raise ValueError(f"expected comma-separated colours, got {text!r}")
    if not word:
        raise ValueError("empty colour word")
    if any(c < 1 for c in word):
        raise ValueError("colours must be >= 1")
    return word


def rows_csv(rows: Sequence[dict]) -> str:
    """Render rows as CSV, columns in the first row's key order; no rows
    give no text."""
    if not rows:
        return ""
    cols = list(rows[0].keys())
    lines = [",".join(cols)]
    for row in rows:
        lines.append(",".join(str(row[c]) for c in cols))
    return "\n".join(lines) + "\n"


def cmd_solve(args: argparse.Namespace) -> int:
    if args.algo == "zielonka":
        given = [f"--{opt}" for opt in ("variant", "update", "e") if getattr(args, opt) is not None]
        if given:
            raise ValueError(f"--algo zielonka takes no {', '.join(given)}")
    with open(args.file, "r", encoding="utf-8") as fh:
        game = parse_pgsolver(fh.read())
    variant = UpdateVariant(args.variant) if args.variant else None
    kind = UpdateKind(args.update) if args.update else None
    stats: dict = {}
    result = solve(game, args.algo, variant, kind, args.e, stats=stats)
    ids = game.ids if game.ids is not None else tuple(game.vertices())
    even = sorted(ids[v] for v in result.even)
    odd = sorted(ids[v] for v in result.odd)
    print("even:", " ".join(map(str, even)))
    print("odd:", " ".join(map(str, odd)))
    for key, value in sorted(stats.items()):
        print(f"# {key}: {value}")
    return 0


def cmd_trace(args: argparse.Namespace) -> int:
    word = _parse_colours(args.colours)
    max_colour = max(word) if args.max_colour is None else args.max_colour
    if max(word) > max_colour:
        raise ValueError("--max-colour below a colour in the word")
    bounds = Bounds(max_colour=max_colour, e=args.e, min_colour=args.min_colour)
    kind = UpdateKind(args.update)
    automaton = SepAutomaton(bounds=bounds, variant=UpdateVariant(args.variant), kind=kind)
    states = automaton.run(word)
    accepted_at = None
    for i, d in enumerate(word):
        print(f"{state_str(states[i])} -> ({d}) -> {state_str(states[i + 1])}")
        if states[i + 1] is WON and accepted_at is None:
            accepted_at = i + 1
    if accepted_at is not None:
        print(f"ACCEPTED at step {accepted_at}")
    else:
        print("REJECTED")
    return 0


def cmd_enumerate(args: argparse.Namespace) -> int:
    bounds = Bounds(
        max_colour=args.max_colour, e=args.e, min_colour=args.min_colour
    )
    variant = StatespaceVariant(args.variant)
    if args.count_only:
        print(capped_statespace_size(bounds, variant, args.cap))
        return 0
    states = enumerate_statespace(bounds, variant, cap=args.cap)
    for s in states:
        print(state_str(s))
    print(f"# {len(states)} states")
    return 0


def cmd_count(args: argparse.Namespace) -> int:
    if args.table == "fixed":
        rows = counting.table_fixed_colours()
    elif args.table == "linear":
        rows = counting.table_linear_colours()
    elif args.c is None or args.n_range is None:
        raise ValueError("need either --table or both --c and --n-range")
    else:
        lo, hi = _parse_range(args.n_range)
        rows = counting.table_rows(tuple((n, args.c) for n in range(lo, hi + 1)), 10**3)
    sys.stdout.write(rows_csv(rows))
    return 0


def cmd_gen(args: argparse.Namespace) -> int:
    deg = _parse_range(args.deg)
    game = generate_random(args.n, args.max_colour, deg, args.seed)
    sys.stdout.write(serialize_pgsolver(game))
    return 0


def cmd_diff(args: argparse.Namespace) -> int:
    lo, hi = _parse_range(args.seeds)
    deg = _parse_range(args.deg)
    rows = differential(range(lo, hi + 1), args.n, args.max_colour, deg)
    sys.stdout.write(rows_csv(rows))
    bad = [row["seed"] for row in rows if not row["agree"]]
    if bad:
        raise InternalInvariantError(
            f"solver disagreement on seeds {bad}; see the CSV rows"
        )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pgwitness",
        description="Parity game solving via witness-based separating automata.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    variants = [v.value for v in UpdateVariant]
    kinds = [k.value for k in UpdateKind]

    p = sub.add_parser("solve", help="solve a game file")
    p.add_argument("file")
    p.add_argument("--algo", choices=["product", "lifting", "zielonka"], default="zielonka")
    p.add_argument("--variant", choices=variants, default=None)
    p.add_argument("--update", choices=kinds, default=None)
    p.add_argument("--e", type=int, default=None, help="even-chain budget override")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("trace", help="run an automaton over a colour word")
    p.add_argument("--colours", required=True, help="comma-separated colours")
    p.add_argument("--variant", choices=variants, default="concise")
    p.add_argument("--update", choices=kinds, default="basic")
    p.add_argument("--e", type=int, required=True)
    p.add_argument("--max-colour", type=int, default=None)
    p.add_argument("--min-colour", type=int, choices=[1, 2], default=1)
    p.set_defaults(func=cmd_trace)

    p = sub.add_parser("enumerate", help="list a witness statespace")
    p.add_argument(
        "--variant",
        choices=[v.value for v in StatespaceVariant],
        default="concise",
    )
    p.add_argument("--max-colour", type=int, required=True)
    p.add_argument("--e", type=int, required=True)
    p.add_argument("--min-colour", type=int, choices=[1, 2], default=1)
    p.add_argument("--cap", type=int, default=DEFAULT_SPACE_CAP)
    p.add_argument("--count-only", action="store_true")
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("count", help="statespace size sweeps and tables")
    p.add_argument("--table", choices=["fixed", "linear"], default=None)
    p.add_argument("--c", type=int, default=None, help="number of colours")
    p.add_argument("--n-range", default=None, help="game sizes, e.g. 8..64")
    p.set_defaults(func=cmd_count)

    p = sub.add_parser("gen", help="generate a random game")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--max-colour", type=int, required=True)
    p.add_argument("--deg", default="1..3", help="out-degree range, e.g. 1..3")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("diff", help="cross-validate all solvers on random games")
    p.add_argument("--seeds", required=True, help="seed range, e.g. 0..99")
    p.add_argument("--n", type=int, default=8)
    p.add_argument("--max-colour", type=int, default=6)
    p.add_argument("--deg", default="1..3")
    p.set_defaults(func=cmd_diff)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except GameParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ResourceCapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except InternalInvariantError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
