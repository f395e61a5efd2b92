"""The statements of the package that a pytest run never executes.

Run ``python tests/unreached.py`` from anywhere in a checkout, or
``python tests/unreached.py PYTEST_ARG ...`` to trace another selection
(the default is the whole suite except criterion 7, the slowest test,
which would take far longer under the tracer).  It runs pytest in this process under
``sys.settrace``, tracing only frames of ``src/pgwitness``, then prints
one line per statement that never ran, ``path:line: source``, and a
count.  A statement counts when its first line holds bytecode, so
docstrings, ``global`` and ``nonlocal`` lines are not listed.  Test
outcomes are ignored: a test that fails still adds what it ran.  Code
that runs only in a subprocess, such as ``__main__.py``, is listed.
Standard library only; expect a few minutes.
"""

from __future__ import annotations

import ast
import os
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "pgwitness"
DEFAULT_ARGS = [
    "-q",
    "-p",
    "no:cacheprovider",
    "--deselect",
    "tests/test_acceptance.py::test_criterion_7_order_and_monotonicity",
]


def code_lines(code) -> set[int]:
    """The lines that hold bytecode in ``code`` and the code nested in it."""
    lines = {line for _, _, line in code.co_lines() if line}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= code_lines(const)
    return lines


def statements(path: Path) -> list[tuple[int, str]]:
    """The first line and text of each statement of ``path`` whose first
    line holds bytecode."""
    source = path.read_text(encoding="utf-8")
    executable = code_lines(compile(source, str(path), "exec"))
    text = source.splitlines()
    found = {
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.stmt) and not isinstance(node, (ast.Global, ast.Nonlocal))
    }
    return [(line, text[line - 1].strip()) for line in sorted(found & executable)]


def traced_run(args: list[str]) -> dict[str, set[int]]:
    """Run pytest on ``args`` from the root of the checkout; the lines
    each file of the package ran, by resolved path."""
    import pytest

    hits: dict[str, set[int]] = {}
    tracers: dict[str, object] = {}  # by code filename; None outside the package

    def tracer_for(filename: str):
        if filename not in tracers:
            path = os.path.realpath(filename)
            if Path(path).parent != PACKAGE:
                tracers[filename] = None
            else:
                add = hits.setdefault(path, set()).add

                def local(frame, event, arg):
                    if event == "line":
                        add(frame.f_lineno)
                    return local

                tracers[filename] = local
        return tracers[filename]

    def on_call(frame, event, arg):
        local = tracer_for(frame.f_code.co_filename)
        if local is not None:
            local(frame, "line", arg)  # the frame's first line
        return local

    os.chdir(ROOT)
    threading.settrace(on_call)
    sys.settrace(on_call)
    try:
        pytest.main(args)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return hits


def main(args: list[str]) -> int:
    hits = traced_run(args or DEFAULT_ARGS)
    missed = 0
    for path in sorted(PACKAGE.glob("*.py")):
        ran = hits.get(str(path), set())
        for line, text in statements(path):
            if line not in ran:
                missed += 1
                print(f"{path.relative_to(ROOT)}:{line}: {text}")
    print(f"{missed} statements of src/pgwitness never ran")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
