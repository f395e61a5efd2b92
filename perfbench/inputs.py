"""Seeded inputs for the three workloads.

Each workload is a fixed suite of game structures (the way Oink and
PGSolver compare solvers on fixed suites).  ``--seed`` draws the
encoding every file is written in: the vertex ids and the order of each
successor list.  Vertex order, and with it every work count, stays the
same, so the spread between runs is measurement noise.  Seeding more
would not give a steady figure: one random game at n=48 differs from the
next by 36 % in solve time (coefficient of variation), lifting alone by
75 %, and shuffling only the vertex order of the cli-random game changes
its lift count by 10 %.

Regenerate the files of one run with::

    python3 perfbench/inputs.py --workload shared-bounds --seed 3 --out /tmp/games
"""

from __future__ import annotations

import argparse
import os
import random

WORKLOADS = ("cli-random", "shared-bounds", "many-colours")

# cli-random: one uniform random game, solved cold in all nine
# configurations per round.
CLI_GAME = {"n": 150, "max_colour": 8, "structure": 1}

# shared-bounds: every game has the colour multiset 1..8, six times each,
# so every game has Bounds(max_colour=8, e=24).
SHARED_MULTISET = tuple(sorted(1 + i % 8 for i in range(48)))
SHARED_RANDOM_GAMES = 24

# many-colours: (n, max colour, even-coloured vertices); each slot has its
# own Bounds(max_colour, e).
MANY_SLOTS = ((60, 12, 28), (72, 14, 24), (84, 16, 16))
# Large statespaces to enumerate: (variant, max colour, e).
MANY_ENUMERATIONS = (("concise", 10, 255), ("original-length", 8, 127), ("classic-value-capped", 10, 120))
# Antagonistic steps above the 200 000-state table cap (concise space of
# Bounds(10, 484) has 291 606 states).  Two traces read the same colours
# from a low and a high start state; both starts are concise witnesses of
# these bounds (nine entries, value 0 and 384).
ABOVE_CAP = {"max_colour": 10, "e": 484, "word": (4, 7)}
ABOVE_CAP_STARTS = ((0,) * 9, (6, 3) + (0,) * 7)


def uniform_game(rng: random.Random, n: int, max_colour: int):
    owners = tuple(rng.randrange(2) for _ in range(n))
    colours = tuple(rng.randint(1, max_colour) for _ in range(n))
    succ = tuple(tuple(sorted(rng.sample(range(n), rng.randint(1, 3)))) for _ in range(n))
    return owners, colours, succ


def multiset_game(rng: random.Random, multiset) -> tuple:
    """Uniform owners and out-degree 1..3, colours a shuffle of ``multiset``."""
    n = len(multiset)
    colours = list(multiset)
    rng.shuffle(colours)
    owners = tuple(rng.randrange(2) for _ in range(n))
    succ = tuple(tuple(sorted(rng.sample(range(n), rng.randint(1, 3)))) for _ in range(n))
    return owners, tuple(colours), succ


def ladder_game(multiset) -> tuple:
    """The ladder shape of PGSolver's ladder games over a colour multiset.

    Vertex ``i`` has edges to ``i+1`` and ``i+2`` (mod n).  Even-indexed
    vertices belong to Even and take the even colours in ascending order,
    odd-indexed vertices belong to Odd and take the odd colours.
    """
    evens = sorted(c for c in multiset if c % 2 == 0)
    odds = sorted(c for c in multiset if c % 2)
    n = len(multiset)
    if len(evens) != len(odds):
        raise ValueError("a ladder needs as many even as odd colours")
    colours = tuple(evens[i // 2] if i % 2 == 0 else odds[i // 2] for i in range(n))
    owners = tuple(i % 2 for i in range(n))
    succ = tuple(tuple(sorted({(i + 1) % n, (i + 2) % n})) for i in range(n))
    return owners, colours, succ


def slot_multiset(n: int, max_colour: int, evens: int) -> tuple[int, ...]:
    even_colours = list(range(2, max_colour + 1, 2))
    odd_colours = list(range(1, max_colour + 1, 2))
    return tuple(
        sorted(
            [even_colours[i % len(even_colours)] for i in range(evens)]
            + [odd_colours[i % len(odd_colours)] for i in range(n - evens)]
        )
    )


def structures(workload: str) -> list[tuple[str, tuple]]:
    """The workload's games, named, before relabelling."""
    if workload == "cli-random":
        g = CLI_GAME
        return [("random", uniform_game(random.Random(g["structure"]), g["n"], g["max_colour"]))]
    if workload == "shared-bounds":
        games = [
            (f"random{i}", multiset_game(random.Random(i), SHARED_MULTISET))
            for i in range(SHARED_RANDOM_GAMES)
        ]
        return games + [("ladder", ladder_game(SHARED_MULTISET))]
    if workload == "many-colours":
        return [
            (f"n{n}c{c}", multiset_game(random.Random(n * 100 + c), slot_multiset(n, c, e)))
            for n, c, e in MANY_SLOTS
        ]
    raise ValueError(f"unknown workload {workload!r}")


def relabel(game, rng: random.Random) -> tuple[str, list[int]]:
    """PGSolver text of ``game`` with random vertex ids and shuffled
    successor lists, and the id of each vertex."""
    owners, colours, succ = game
    n = len(owners)
    ids = rng.sample(range(4 * n), n)
    lines = [f"parity {max(ids)};"]
    for v in range(n):
        targets = [ids[w] for w in succ[v]]
        rng.shuffle(targets)
        lines.append(f"{ids[v]} {colours[v]} {owners[v]} {','.join(map(str, targets))};")
    return "\n".join(lines) + "\n", ids


def write_inputs(workload: str, seed: int, out_dir: str) -> list[dict]:
    """Write the workload's game files; return one record per game with
    its name, path, vertex ids and structure."""
    rng = random.Random(f"{workload}/{seed}")
    os.makedirs(out_dir, exist_ok=True)
    records = []
    for name, game in structures(workload):
        text, ids = relabel(game, rng)
        path = os.path.join(out_dir, f"{name}.pg")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        records.append({"name": name, "path": path, "ids": ids, "game": game})
    return records


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    for rec in write_inputs(args.workload, args.seed, args.out):
        print(rec["path"])


if __name__ == "__main__":
    main()
