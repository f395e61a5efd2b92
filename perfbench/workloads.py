"""What one set-up and one round of each workload do.

These functions run in child processes that import `pgwitness` from the
checkout's ``src``; the parent process never imports it, so every child
starts with empty caches.  Each returns plain data for the parent to
check: timings, winning regions, work counters and states.
"""

from __future__ import annotations

import io
import os
import resource
import sys
from time import perf_counter

import inputs
from forks import ChildError, fork_call
import speed

# The nine witness configurations: (algorithm, variant, update kind, group).
CONFIGS = tuple(
    [("lifting", v, "antagonistic", "lifting") for v in ("classic", "concise", "colour")]
    + [
        ("product", v, k, "product_" + k)
        for v in ("classic", "concise", "colour")
        for k in ("basic", "antagonistic")
    ]
)


# Calibration kernel runs between two operations.  Operations of
# shared-bounds last about 40 ms, the others up to seconds.
TICKS = {"cli-random": 8, "shared-bounds": 1, "many-colours": 6}


def import_package(root: str):
    sys.path.insert(0, os.path.join(root, "src"))
    import pgwitness
    import pgwitness.cli

    where = os.path.realpath(pgwitness.__file__)
    if not where.startswith(os.path.realpath(root) + os.sep):
        raise RuntimeError(f"imported pgwitness from {where}, not from {root}")
    return pgwitness


def setup(pg, workload: str, records: list[dict]) -> list:
    """Parse and normalise every game file; on shared-bounds also
    enumerate the shared statespaces and build the antagonistic tables."""
    games = []
    for rec in records:
        with open(rec["path"], encoding="utf-8") as fh:
            game = pg.parse_pgsolver(fh.read())
        norm, _ = pg.normalize_colours(game)
        games.append(game)
    if workload == "shared-bounds":
        bounds = pg.bounds_for_game(norm)
        for space in ("classic-value-capped", "concise"):
            pg.enumerate_statespace(bounds, pg.StatespaceVariant(space))
        for variant in pg.UpdateVariant:
            pg.antagonistic_update(bounds.blank_witness(), bounds.min_colour, bounds, variant)
    return games


def _solve_op(pg, game, gi: int, ci: int) -> dict:
    algo, variant, kind, _ = CONFIGS[ci]
    stats: dict = {}
    t0 = perf_counter()
    try:
        res = pg.solve(game, algo, pg.UpdateVariant(variant), pg.UpdateKind(kind), stats=stats)
    except Exception as exc:  # a failed operation is counted, not fatal
        return {"kind": "solve", "game": gi, "cfg": ci, "failed": repr(exc)}
    dt = perf_counter() - t0
    return {
        "kind": "solve", "game": gi, "cfg": ci, "t": dt,
        "even": sorted(res.even), "work": sum(stats.values()),
    }


def _cli_child(pg, path: str, ci: int, tracer) -> dict:
    algo, variant, kind, _ = CONFIGS[ci]
    if tracer is not None:
        tracer.reset()
    out = io.StringIO()
    sys.stdout = out
    rc = pg.cli.main(["solve", path, "--algo", algo, "--variant", variant, "--update", kind])
    sys.stdout = sys.__stdout__
    return {"rc": rc, "out": out.getvalue(), "trace": tracer.snapshot() if tracer else None}


def _cli_op(pg, path: str, gi: int, ci: int, tracer) -> tuple[dict, int, dict | None]:
    """``pgwitness solve`` in a fresh child: timed from fork to reaping."""
    t0 = perf_counter()
    try:
        child, usage = fork_call(_cli_child, pg, path, ci, tracer)
    except ChildError as exc:
        return {"kind": "solve", "game": gi, "cfg": ci, "failed": str(exc)}, 0, None
    dt = perf_counter() - t0
    op = {"kind": "solve", "game": gi, "cfg": ci, "t": dt}
    lines = child["out"].splitlines()
    if child["rc"] != 0 or len(lines) < 3:
        op["failed"] = f"exit code {child['rc']}"
    else:
        op["even_ids"] = [int(x) for x in lines[0].split()[1:]]
        op["work"] = int(lines[2].split(":")[1])
    return op, usage.ru_maxrss, child["trace"]


def _enumerate_op(pg, i: int) -> dict:
    space, max_colour, e = inputs.MANY_ENUMERATIONS[i]
    bounds = pg.Bounds(max_colour=max_colour, e=e)
    t0 = perf_counter()
    try:
        states = pg.enumerate_statespace(bounds, pg.StatespaceVariant(space))
    except Exception as exc:
        return {"kind": "enumerate", "i": i, "failed": repr(exc)}
    dt = perf_counter() - t0
    return {"kind": "enumerate", "i": i, "t": dt, "states": len(states)}


def _encode(state):
    return "Won" if not isinstance(state, tuple) else list(state)


def _trace_op(pg, i: int) -> dict:
    """Antagonistic steps above the table cap, from start state ``i``."""
    spec = inputs.ABOVE_CAP
    bounds = pg.Bounds(max_colour=spec["max_colour"], e=spec["e"])
    variant = pg.UpdateVariant.CONCISE
    automaton = pg.SepAutomaton(bounds=bounds, variant=variant, kind=pg.UpdateKind.ANTAGONISTIC)
    states = [inputs.ABOVE_CAP_STARTS[i]]
    t0 = perf_counter()
    try:
        for d in spec["word"]:
            states.append(automaton.step(states[-1], d))
    except Exception as exc:
        return {"kind": "trace", "i": i, "failed": repr(exc)}
    dt = perf_counter() - t0
    basic = [
        pg.updates.capped_update(s, d, bounds, variant) for s, d in zip(states, spec["word"])
    ]
    return {
        "kind": "trace", "i": i, "t": dt,
        "states": [_encode(s) for s in states], "basic": [_encode(s) for s in basic],
    }


def run_round(pg, workload: str, games: list, records: list[dict], tracer) -> dict:
    """One round: the same operations every time.  Returns the operations,
    each with its calibration factor ``f`` (see `speed`), and, where the
    round's own process ran them, its peak resident set (kB)."""
    if tracer is not None:
        tracer.reset()
    ticks = TICKS[workload]
    before = speed.sample(ticks)
    ops: list[dict] = []
    rss, snaps = 0, []

    def done(op: dict) -> None:
        nonlocal before
        after = speed.sample(ticks)
        op["f"] = speed.factor(before + after)
        ops.append(op)
        before = after

    if workload == "cli-random":
        for gi, rec in enumerate(records):
            for ci in range(len(CONFIGS)):
                op, child_rss, snap = _cli_op(pg, rec["path"], gi, ci, tracer)
                done(op)
                rss = max(rss, child_rss)
                snaps.append(snap)
    else:
        for gi, game in enumerate(games):
            for ci in range(len(CONFIGS)):
                done(_solve_op(pg, game, gi, ci))
    if workload == "many-colours":
        for i in range(len(inputs.MANY_ENUMERATIONS)):
            done(_enumerate_op(pg, i))
        for i in range(len(inputs.ABOVE_CAP_STARTS)):
            done(_trace_op(pg, i))
    if workload == "shared-bounds":
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer is not None and workload != "cli-random":
        snaps = [tracer.snapshot()]
    return {"ops": ops, "rss_kb": rss, "traces": snaps if tracer else None}
