"""The package's public surface: what the benchmark harness looks up,
what ``__all__`` exports, the README's Library example, and the modules
an import loads.

The references that only tests use live in ``tests/oracles.py``; none of
them may come back into the package.
"""

from __future__ import annotations

import contextlib
import io
import os
import re
import subprocess
import sys
from pathlib import Path

import pgwitness
import pgwitness.cli  # noqa: F401  (the harness reads pg.cli)

ROOT = Path(__file__).resolve().parents[1]

TEST_ONLY = {
    "witnesses": [
        "is_classic_witness",
        "is_colour_witness",
        "_ChainIndex",
        "_check_play",
        "DEFAULT_CHECK_CAP",
        "witness_cmp",
        "entry_at",
        "even_positions",
        "truncate_odd_repeats",
    ],
    "games": ["longest_even_chain", "random_play"],
    "automata": ["play_word"],
    "counting": ["half_budget_identity", "table_csv"],
    "updates": ["update_space"],
    "solvers": ["differential_csv"],
}


def test_surface_resolves_and_keeps_test_only_names_out():
    # Every ``pg.<name>`` and ``pg.<module>.<name>`` the harness reads.
    looked_up = set()
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        looked_up |= set(re.findall(r"\bpg\.(\w+)(?:\.(\w+))?", path.read_text()))
    assert looked_up
    for name, attr in sorted(looked_up):
        owner = getattr(pgwitness, name)
        if attr:
            getattr(owner, attr)

    for name in pgwitness.__all__:
        getattr(pgwitness, name)
    for module, names in TEST_ONLY.items():
        for name in names:
            assert name not in pgwitness.__all__
            assert not hasattr(pgwitness, name), name
            assert not hasattr(getattr(pgwitness, module), name), (module, name)

    readme = (ROOT / "README.md").read_text()
    library = readme[readme.index("## Library") :]
    code = library.split("```python\n", 1)[1].split("\n```", 1)[0]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(code, {})
    assert out.getvalue() == "[0, 1, 3] [2, 4]\n"
    assert "# [0, 1, 3] [2, 4]" in code


def test_import_loads_no_dataclasses_inspect_typing_or_random():
    # ``-S`` keeps site hooks, which may import typing themselves, out of
    # the check.
    code = (
        "import sys, pgwitness, pgwitness.cli; "
        "print(' '.join(sorted({'dataclasses', 'inspect', 'typing', 'random'} & set(sys.modules))))"
    )
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    out = subprocess.run(
        [sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == ""
