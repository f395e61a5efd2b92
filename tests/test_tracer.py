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
variant = pgwitness.UpdateVariant.CONCISE
for algo, kind in (("lifting", "antagonistic"), ("product", "basic")):
    pgwitness.solve(game, algo, variant, pgwitness.UpdateKind(kind), stats=stats)
print(json.dumps({{"spans": {{k: v[0] for k, v in tracer.spans.items()}}, "stats": stats}}))
"""


def test_tracer_installs_and_traces_a_lifting_and_a_product_solve():
    code = CHILD.format(src=str(ROOT / "src"), perfbench=str(ROOT / "perfbench"))
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    out = json.loads(done.stdout.splitlines()[-1])
    assert out["spans"]["solvers.lifting"] == 1
    assert out["spans"]["solvers.product"] == 1
    assert out["spans"]["games.normalize"] == 2
    assert out["stats"]["lifts"] > 0 and out["stats"]["product_positions"] > 0
