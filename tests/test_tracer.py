"""The benchmark's tracer (perfbench/tracing.py) against the package.

The tracer wraps functions it finds by name, private ones included, so a
rename in the package breaks ``perfbench/run.py --trace 1``.  It patches
module globals for the whole process, so it is installed in a child.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

CHILD = """
import json, sys
sys.path[:0] = [{src!r}, {perfbench!r}]
import pgwitness
import pgwitness.cli
from tracing import Tracer

tracer = Tracer()
tracer.install(pgwitness)
game = pgwitness.generate_random(12, 4, (1, 3), 0)
stats = {{}}
# Concise lifting, then colour lifting on the same Bounds: the colour
# table takes the concise table's shared columns.
for algo, variant, kind in (
    ("lifting", "concise", "antagonistic"),
    ("lifting", "colour", "antagonistic"),
    ("product", "concise", "basic"),
):
    pgwitness.solve(
        game, algo, pgwitness.UpdateVariant(variant), pgwitness.UpdateKind(kind), stats=stats
    )
spans = {{k: v[0] for k, v in tracer.spans.items()}}
bounds = pgwitness.automata.bounds_for_game(pgwitness.normalize_colours(game)[0])
concise, colour = (
    pgwitness.updates._antagonistic_table(bounds, pgwitness.UpdateVariant(v))[2]
    for v in ("concise", "colour")
)
shared = [d for d in bounds.colours if colour[d] is concise[d]]
print(json.dumps({{"spans": spans, "stats": stats, "shared": shared}}))
"""


def test_tracer_installs_and_traces_lifting_and_product_solves():
    code = CHILD.format(src=str(ROOT / "src"), perfbench=str(ROOT / "perfbench"))
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    out = json.loads(done.stdout.splitlines()[-1])
    assert out["spans"]["solvers.lifting"] == 2
    assert out["spans"]["solvers.product"] == 1
    assert out["spans"]["games.normalize"] == 3
    assert out["shared"] == [1, 2, 3]
    assert out["stats"]["lifts"] > 0 and out["stats"]["product_positions"] > 0


SWITCH_CHILD = """
import json, sys
sys.path[:0] = [{src!r}, {perfbench!r}]
import pgwitness
import pgwitness.cli
from tracing import Tracer

statespace = pgwitness.witnesses._statespace
tracer = Tracer()
tracer.install(pgwitness)
concise = pgwitness.StatespaceVariant.CONCISE
# Two solves with their own Bounds, then one statespace of a third: the
# enumeration switches the Bounds inside the traced call itself.
built, misses = [], [statespace.cache_info().misses]
for seed, max_colour in ((0, 4), (1, 6)):
    game = pgwitness.generate_random(12, max_colour, (1, 3), seed)
    pgwitness.solve(
        game, "lifting", pgwitness.UpdateVariant.CONCISE, pgwitness.UpdateKind.ANTAGONISTIC
    )
    built.append((pgwitness.automata.bounds_for_game(pgwitness.normalize_colours(game)[0]), concise))
    misses.append(statespace.cache_info().misses)
built.append((pgwitness.Bounds(max_colour=8, e=30), pgwitness.StatespaceVariant.ORIGINAL_LENGTH))
pgwitness.enumerate_statespace(*built[-1])
misses.append(statespace.cache_info().misses)
print(json.dumps({{
    "bounds": len(set(b for b, _ in built)),
    "misses": misses,
    "states": tracer.counts.get("witnesses.states", 0),
    "sizes": sum(pgwitness.witnesses.statespace_size(*key) for key in built),
}}))
"""


def test_tracer_counts_every_enumeration_across_a_bounds_switch():
    code = SWITCH_CHILD.format(src=str(ROOT / "src"), perfbench=str(ROOT / "perfbench"))
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    out = json.loads(done.stdout.splitlines()[-1])
    assert out["bounds"] == 3
    # Emptying the caches on a new Bounds keeps the miss count, so each
    # statespace built is one miss, and the tracer counts its states.
    assert out["misses"] == [0, 1, 2, 3]
    assert out["states"] == out["sizes"]
